"""Spans around calls into the library, recorded from outside it.

The tracer rebinds module attributes: every entry of ``BINDINGS`` names a
module, the attribute a caller looks up at call time, and the span the call
is recorded under.  A function imported by several modules is rebound at
each of those names, so the span sees every caller.  Nothing in the library
changes; ``uninstall`` puts the original objects back.

A span's self time is its duration minus the durations of the spans nested
in it.  Calls are strictly nested, so the sum of the children's durations
is the part of the interval they cover.  For generators each ``next()`` is
a span, so time spent by the consumer between items is not charged to the
generator.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

CALL, GENERATOR = "call", "generator"


@dataclass
class SpanStat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    yielded: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.counters: dict[str, float] = {}
        self._child_time: list[float] = []
        self._installed: list[tuple[object, str, object]] = []
        self._seen_queries: set = set()

    def count(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def stat(self, name: str) -> SpanStat:
        return self.stats.setdefault(name, SpanStat())

    def _open(self) -> float:
        self._child_time.append(0.0)
        return time.perf_counter()

    def _close(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        st = self.stat(name)
        st.total += duration
        st.self_time += duration - self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += duration

    @contextmanager
    def span(self, name: str):
        self.stat(name).calls += 1
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap_call(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.stat(name).calls += 1
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.count(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                self._close(name, start)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.stat(name).calls += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    start = self._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, start)
                    self.stat(name).yielded += 1
                    yield item
            finally:
                inner.close()

        return traced

    def install(self) -> int:
        """Rebind every name in ``BINDINGS`` that the library still has and
        return how many were rebound.

        A name a later refactor removes is skipped, so its span reads zero
        calls instead of breaking the benchmark."""
        for module_name, attr, span, kind, observe in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = (self.wrap_generator(span, original) if kind == GENERATOR
                       else self.wrap_call(span, original, observe))
            self._installed.append((module, attr, original))
            setattr(module, attr, wrapper)
        return len(self._installed)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


# -- observers: counts taken where the work happens -------------------------


def _joint_cells(tracer: Tracer, args, result) -> None:
    model = args[0]
    domains = dict(model.domains)
    endogenous = 1
    for node in model.diagram.nodes:
        endogenous *= domains[node]
    exogenous = 1
    for _name, probs in model.exogenous:
        exogenous *= len(probs)
    tracer.count("scm.joint.cells", endogenous * exogenous)


def _solve_outcome(tracer: Tracer, args, result) -> None:
    if type(result).__name__ == "Policy":
        tracer.count("imitate.solve_policy.feasible")


def _identify_query(tracer: Tracer, args, result) -> None:
    key = (args[0], args[1], frozenset(args[2]))
    if key in tracer._seen_queries:
        tracer.count("identify.identify_policy.repeats")
    tracer._seen_queries.add(key)
    if result is not None:
        tracer.count("identify.identify_policy.identified")


def _instrument_tried(tracer: Tracer, args, result) -> None:
    """identify_policy called by a search loop: one (subspace, surrogate)
    pair tried as an instrument."""
    _identify_query(tracer, args, result)
    tracer.count("imitate.instruments.tried")
    if result is not None:
        tracer.count("imitate.instruments.identified")


def _pipeline_outcome(tracer: Tracer, args, result) -> None:
    if result.status == "imitable-graphical":
        tracer.count("criteria.graphical")


def _study_outcome(tracer: Tracer, args, result) -> None:
    for line in result.splitlines():
        if line.startswith("# fraction_p_imitable "):
            tracer.count("experiments.p_imitable_sum", float(line.split()[2]))


_P = "causal_imitation."

# (module, attribute looked up by the caller, span, kind, observer)
BINDINGS: list[tuple[str, str, str, str, object]] = [
    (_P + "experiments", "frontdoor_study", "experiments.frontdoor_study", CALL, _study_outcome),
    *[(_P + m, "random_frontdoor", "scm.random_frontdoor", CALL, None) for m in ("scm", "experiments")],
    (_P + "scm", "random_scm", "scm.random_scm", CALL, None),
    *[(_P + m, "joint", "scm.joint", CALL, _joint_cells) for m in ("scm", "imitate", "experiments")],
    *[(_P + m, "observational", "scm.observational", CALL, None) for m in ("scm", "experiments", "cli")],
    *[(_P + m, "empirical_observational", "scm.empirical_observational", CALL, None)
      for m in ("scm", "experiments", "cli")],
    *[(_P + m, "imitate_pipeline", "imitate.imitate_pipeline", CALL, _pipeline_outcome)
      for m in ("imitate", "cli")],
    *[(_P + m, "solve_policy", "imitate.solve_policy", CALL, _solve_outcome)
      for m in ("imitate", "experiments")],
    (_P + "imitate", "linprog", "imitate.linprog", CALL, None),
    (_P + "imitate", "solve_residual", "imitate.solve_residual", CALL, None),
    *[(_P + m, "verify_policy", "imitate.verify_policy", CALL, None) for m in ("imitate", "experiments")],
    *[(_P + m, "surrogate_candidates", "imitate.surrogate_candidates", GENERATOR, None)
      for m in ("imitate", "experiments", "cli")],
    *[(_P + m, "identify_policy", "identify.identify_policy", CALL, _instrument_tried)
      for m in ("imitate", "experiments", "cli")],
    *[(_P + m, "identify_policy", "identify.identify_policy", CALL, _identify_query)
      for m in ("identify", "enumerators", "criteria")],
    *[(_P + m, "project", "projection.project", CALL, None) for m in ("projection", "identify")],
    *[(_P + m, "list_id_subspaces", "enumerators.list_id_subspaces", GENERATOR, None)
      for m in ("enumerators", "imitate", "experiments", "cli")],
    *[(_P + m, "list_min_separators", "enumerators.list_min_separators", GENERATOR, None)
      for m in ("enumerators", "imitate")],
    *[(_P + m, "direct_parents_imitable", "criteria.direct_parents_imitable", CALL, None)
      for m in ("criteria", "imitate")],
    *[(_P + m, "find_pi_backdoor", "criteria.find_pi_backdoor", CALL, None)
      for m in ("criteria", "imitate", "cli")],
    *[(_P + m, "d_separated", "diagram.d_separated", CALL, None)
      for m in ("diagram", "criteria", "imitate")],
]
