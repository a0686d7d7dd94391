"""The four closed-loop workloads: inputs drawn from the seed, one op, and
the check of its output.

Every workload hands the library only inputs it generated itself.  Inputs
are addressed by index, and the index ranges never overlap: timed ops use
``0, 1, ...``, warm-up uses ``WARMUP_BASE + j`` and the traced pass of a
``--trace 1`` run uses ``TRACED_BASE + j``, so warm-up never fills a cache
with an input that is timed later.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WARMUP_BASE = 900_000
TRACED_BASE = 500_000
OP_TIMEOUT_S = 120.0


@dataclass
class OpResult:
    """One op's outcome.  A failed op raised, exited nonzero or failed its
    check; ``wrong`` marks the last kind, an output that is incorrect."""

    ok: bool
    text: str          # canonical output, hashed into the run digest
    note: str = ""     # why the op failed
    wrong: bool = False
    cpu_s: float = 0.0  # child CPU time, for ops run in a subprocess
    rss_kb: int = 0     # child peak resident set, for ops run in a subprocess
    trace: dict | None = None


class Workload:
    """What the loop in run.py needs from a workload: ``inputs(start,
    count)`` for the inputs at those indices, ``run(x)`` for one op on input
    ``x``, ``label(x)`` to name an input in a failure report, and
    ``nominal_ops_s``, the seed's rate, which sizes the input pool and the
    traced pass."""

    name: str
    nominal_ops_s: float

    def check_run(self, results: list[OpResult]) -> list[str]:
        """Checks that hold for the run as a whole; one message per breach."""
        return []

    def known_defect_probe(self) -> str | None:
        """Status of a known defect kept out of the timed ops, if any."""
        return None


# -- frontdoor study, a few instances per op ---------------------------------

# Instances are p-imitable about half the time, and a p-imitable one costs
# an extra LP and an extra verification, so single-instance op times are
# bimodal with the median between the modes: across ten runs its spread
# reached 0.19.  Summing four instances per op smooths the distribution.
MODELS_PER_OP = 4

# ROADMAP item 4(b)'s class of defect: a sampled table with an empty
# conditioning cell aborts the whole study with UnsupportedConditionalError.
# At 100 000 samples that is about 1 op in 500.  Timed ops are ones that can
# succeed, so sampled study seeds whose tables hold such a cell are set aside
# before timing; every run counts them and probes this reproducer once.
KNOWN_DEFECT_STUDY = {"models": 1, "samples": 100_000, "seed": 17_000_236}


def _instance_rows(text: str) -> list[list[str]]:
    """``[index, p_imitable, l1_ci, l1_bc]`` per instance of a study report."""
    return [line.split() for line in text.splitlines() if not line.startswith("#")]


class Frontdoor(Workload):
    """``experiments.frontdoor_study(models=MODELS_PER_OP, samples,
    seed=s_i)`` per op: criterion 6's study, a few instances at a time."""

    def __init__(self, name: str, samples: int, seed: int):
        self.name = name
        self.samples = samples
        self.base = seed * 1_000_000
        self.nominal_ops_s = (170.0 if samples == 0 else 90.0) / MODELS_PER_OP
        from causal_imitation import experiments, scm

        self.experiments, self.scm = experiments, scm
        # per index range: the study seeds kept so far, and the next index to screen
        self.kept: dict[int, tuple[list[int], int]] = {}
        self.set_aside = 0

    def inputs(self, start: int, count: int) -> list[int]:
        if self.samples == 0:
            return [self.base + i for i in range(start, start + count)]
        region = max(b for b in (0, TRACED_BASE, WARMUP_BASE) if start >= b)
        kept, scan = self.kept.get(region, ([], region))
        while len(kept) < start - region + count:
            if self.conditionals_defined(self.base + scan):
                kept.append(self.base + scan)
            else:
                self.set_aside += 1
            scan += 1
        self.kept[region] = (kept, scan)
        return kept[start - region:start - region + count]

    def conditionals_defined(self, study_seed: int) -> bool:
        """Whether every conditional of each sampled table of the study is
        defined, i.e. no marginal over all variables but one has an empty
        cell.  The instances are drawn as ``frontdoor_study`` draws them:
        per-instance seeds spawned from the study seed by instance index."""
        for index in range(MODELS_PER_OP):
            model = self.scm.random_frontdoor(np.random.SeedSequence(entropy=study_seed, spawn_key=(index,)))
            table = self.scm.empirical_observational(
                model, self.samples, np.random.SeedSequence(entropy=study_seed, spawn_key=(index, 1)))
            if not all((table.probs.sum(axis=a) > 0).all() for a in range(table.probs.ndim)):
                return False
        return True

    def label(self, study_seed: int) -> str:
        return (f"experiment frontdoor-study --models {MODELS_PER_OP} --samples {self.samples} "
                f"--seed {study_seed}")

    def run(self, study_seed: int) -> OpResult:
        text = self.experiments.frontdoor_study(models=MODELS_PER_OP, samples=self.samples,
                                                seed=study_seed)
        if self.samples == 0:
            for index, flag, l1_ci, _l1_bc in _instance_rows(text):
                if flag == "1" and (l1_ci == "-" or float(l1_ci) > 1e-9):
                    return OpResult(False, text, f"{self.label(study_seed)}: instance {index} is "
                                                 f"p-imitable but l1_ci is {l1_ci}", wrong=True)
        return OpResult(True, text)

    def check_run(self, results: list[OpResult]) -> list[str]:
        """Criterion 6's sampled bounds apply to the run's means; they are
        statistical, so they are checked once the run has 200 instances."""
        if self.samples == 0:
            return []
        rows = [row for r in results if r.ok for row in _instance_rows(r.text)]
        if len(rows) < 200:
            return []
        solved = [float(f[2]) for f in rows if f[2] != "-"]
        mean_ci = float(np.mean(solved)) if solved else math.inf
        mean_bc = float(np.mean([float(f[3]) for f in rows]))
        problems = []
        if mean_ci > 0.005:
            problems.append(f"mean_l1_ci {mean_ci:.6f} > 0.005")
        if mean_bc < 0.010:
            problems.append(f"mean_l1_bc {mean_bc:.6f} < 0.010")
        return problems

    def known_defect_probe(self) -> str | None:
        if self.samples == 0:
            return None
        from causal_imitation.errors import UnsupportedConditionalError

        screened = f"{self.set_aside} of {self.set_aside + sum(len(k) for k, _ in self.kept.values())}"
        try:
            self.experiments.frontdoor_study(**KNOWN_DEFECT_STUDY)
        except UnsupportedConditionalError as exc:
            status = f"present (UnsupportedConditionalError: {exc})"
        else:
            status = "changed (the study completes)"
        call = ", ".join(f"{k}={v}" for k, v in KNOWN_DEFECT_STUDY.items())
        return (f"{status} on frontdoor_study({call}); {screened} generated "
                f"study seeds set aside for an empty conditioning cell")


# -- random mixed diagrams through the whole pipeline -----------------------

# Nodes and bidirected edges cycle through a fixed grid, so every run sees
# the same mix of model sizes.  The exact joint costs 2**(nodes + bidirected)
# cells; stratifying it keeps the op-cost mix, and with it the throughput,
# the same from seed to seed.
RANDOM_NODES = (8, 9, 10)
RANDOM_BIDIRECTED = (4, 5, 6)


def random_instance(rng: np.random.Generator, n_nodes: int, n_bidirected: int):
    """Random mixed diagram with a quarter of its nodes latent, plus an
    observed action with descendants, a reward among them, and up to three
    observed non-descendants as policy inputs."""
    from causal_imitation.diagram import CausalDiagram, PolicySpace

    names = [f"V{k}" for k in range(n_nodes)]
    pairs = [(names[a], names[b]) for a in range(n_nodes) for b in range(a + 1, n_nodes)]
    while True:
        directed = [p for p in pairs if rng.uniform() < 0.3]
        bidirected = [pairs[j] for j in rng.choice(len(pairs), size=n_bidirected, replace=False)]
        latent = set(rng.choice(names, size=n_nodes // 4, replace=False).tolist())
        diagram = CausalDiagram.create(
            observed=[v for v in names if v not in latent], latent=sorted(latent),
            directed=directed, bidirected=bidirected,
        )
        actions = [v for v in names if v not in latent and diagram.descendants({v}, False)]
        if actions:
            break
    action = actions[rng.integers(len(actions))]
    below = sorted(diagram.descendants({action}, False))
    reward = below[rng.integers(len(below))]
    candidates = sorted(v for v in names if v not in latent and v != action and v not in below)
    k = min(len(candidates), int(rng.integers(1, 4)))
    inputs = rng.choice(candidates, size=k, replace=False).tolist() if k else []
    return diagram, PolicySpace.create(action, inputs), reward, int(rng.integers(2**31))


class RandomSearch(Workload):
    """``random_scm`` -> ``observational`` -> ``imitate_pipeline`` ->
    ``verify_policy`` on a new diagram per op."""

    nominal_ops_s = 85.0

    def __init__(self, seed: int):
        self.name = "random-search"
        self.seed = seed
        from causal_imitation import imitate, scm

        self.imitate, self.scm = imitate, scm

    def instance(self, index: int):
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(index,)))
        n_nodes = RANDOM_NODES[index % len(RANDOM_NODES)]
        n_bidirected = RANDOM_BIDIRECTED[(index // len(RANDOM_NODES)) % len(RANDOM_BIDIRECTED)]
        return random_instance(rng, n_nodes, n_bidirected)

    def inputs(self, start: int, count: int) -> list:
        return [self.instance(i) for i in range(start, start + count)]

    def label(self, instance) -> str:
        diagram, space, reward, model_seed = instance
        return f"{len(diagram.nodes)}-node diagram, action {space.action}, model seed {model_seed}"

    def run(self, instance) -> OpResult:
        diagram, space, reward, model_seed = instance
        model = self.scm.random_scm(diagram, model_seed)
        table = self.scm.observational(model)
        result = self.imitate.imitate_pipeline(diagram, space, table, reward)
        text = result.report()
        if result.policy is None:
            return OpResult(True, text)
        l1 = self.imitate.verify_policy(model, result.policy, {reward})
        text += f"verified_l1 {l1:.3e}\n"
        if not l1 <= 1e-6:
            return OpResult(False, text, f"model seed {model_seed}: {result.status} policy verifies to "
                                         f"{l1:.3e}", wrong=True)
        return OpResult(True, text)


# -- cold CLI processes ------------------------------------------------------

EXPECTED_PATH = Path(__file__).resolve().parent / "cli_expected.json"

# ROADMAP item 4(b): this op exits 1 with "conditioning event of probability
# zero" even on the exact table.  It runs once per run as an untimed probe,
# so the defect stays visible without counting as a failed timed op.
KNOWN_DEFECT_OP = ("imitate", "--graph", "frontdoor_observed", "--scm", "parity_trap")
WARMUP_OP = ("fixture", "--list")


def cli_ops() -> list[tuple[str, ...]]:
    """``imitate`` on each bundled graph/model pair except the known defect,
    ``check`` and ``instruments`` on each bundled diagram, and the
    highway-binary experiment."""
    from causal_imitation import fixtures

    ops = [("imitate", "--graph", fixtures.SCM_DIAGRAM[m], "--scm", m)
           for m in fixtures.scm_names()]
    ops = [op for op in ops if op != KNOWN_DEFECT_OP]
    for name in fixtures.diagram_names():
        ops.append(("check", "--graph", name))
        ops.append(("instruments", "--graph", name))
    ops.append(("experiment", "highway-binary"))
    return ops


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], trace_pipe: bool = False):
    """Run one child to completion; return (exit code, stdout, stderr,
    wall s, CPU s, peak RSS KB, bytes from the trace pipe)."""
    extra_r = extra_w = None
    pass_fds: tuple[int, ...] = ()
    if trace_pipe:
        extra_r, extra_w = os.pipe()
        pass_fds = (extra_w,)
        argv = argv[:2] + [str(extra_w)] + argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, pass_fds=pass_fds)
    if extra_w is not None:
        os.close(extra_w)
    chunks: dict[int, list[bytes]] = {}
    sel = selectors.DefaultSelector()
    streams = [proc.stdout.fileno(), proc.stderr.fileno()] + ([extra_r] if extra_r is not None else [])
    for fd in streams:
        sel.register(fd, selectors.EVENT_READ)
        chunks[fd] = []
    try:
        open_fds = len(streams)
        while open_fds:
            remaining = OP_TIMEOUT_S - (time.perf_counter() - start)
            events = sel.select(timeout=max(0.0, remaining))
            if not events:
                raise TimeoutError(f"{' '.join(argv)} ran longer than {OP_TIMEOUT_S} s")
            for key, _ in events:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
                    open_fds -= 1
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        sel.close()
        proc.stdout.close()
        proc.stderr.close()
        if extra_r is not None:
            os.close(extra_r)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[fd]) for fd in streams[:2])
    trace = b"".join(chunks[extra_r]) if extra_r is not None else b""
    return (proc.returncode, out, err, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss, trace)


class CliCold(Workload):
    """One fresh ``python -m causal_imitation.cli ...`` process per op, one
    at a time; the seed fixes the order the ops cycle in."""

    nominal_ops_s = 1.0

    def __init__(self, seed: int):
        self.name = "cli-cold"
        self.expected = json.loads(EXPECTED_PATH.read_text())
        order = list(self.expected["ops"])
        random.Random(seed).shuffle(order)
        self.order = order

    def inputs(self, start: int, count: int) -> list[str]:
        if start >= WARMUP_BASE:
            return [" ".join(WARMUP_OP)] * count
        # every op is a fresh process, so the traced pass can repeat the
        # untraced pass's ops and their times compare op for op
        start %= TRACED_BASE
        return [self.order[(start + i) % len(self.order)] for i in range(count)]

    def label(self, key: str) -> str:
        return key

    def _expect(self, key: str) -> dict:
        if key == " ".join(WARMUP_OP):
            return self.expected["warmup"]
        return self.expected["ops"][key]

    def run(self, key: str, traced: bool = False) -> OpResult:
        if traced:
            argv = [sys.executable, str(Path(__file__).with_name("cli_traced.py"))] + key.split()
        else:
            argv = [sys.executable, "-m", "causal_imitation.cli"] + key.split()
        code, out, err, _wall, cpu, rss, trace = run_child(argv, trace_pipe=traced)
        expect = self._expect(key)
        result = OpResult(True, key + "\n" + out.decode(), cpu_s=cpu, rss_kb=rss,
                          trace=json.loads(trace) if trace else None)
        if code != 0:
            result.ok, result.note = False, f"{key}: exit {code}: {err.decode().strip()[-200:]}"
        elif out.decode() != expect["stdout"]:
            result.ok, result.wrong = False, True
            result.note = f"{key}: stdout differs from the seed capture"
        elif traced and result.trace is None:
            result.ok, result.note = False, f"{key}: traced child wrote no trace"
        return result

    def known_defect_probe(self) -> str:
        """Status of ROADMAP item 4(b), compared with the seed capture."""
        expect = self.expected["known_defect"]
        code, out, err, *_ = run_child([sys.executable, "-m", "causal_imitation.cli", *KNOWN_DEFECT_OP])
        if code == expect["exit"] and err.decode() == expect["stderr"]:
            return f"present (exit {code}: {err.decode().strip()})"
        return f"changed (exit {code}, stdout {len(out)} bytes, stderr {err.decode().strip()[:120]!r})"


def make(name: str, seed: int):
    if name == "frontdoor-exact":
        return Frontdoor(name, 0, seed)
    if name == "frontdoor-sampled":
        return Frontdoor(name, 100_000, seed)
    if name == "random-search":
        return RandomSearch(seed)
    if name == "cli-cold":
        return CliCold(seed)
    raise ValueError(f"unknown workload {name!r}")


def digest(results: list[OpResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.text.encode())
    return h.hexdigest()[:16]


# -- scaling sweep (traced runs) --------------------------------------------

SWEEP_SIZES = tuple(range(8, 17))


def scaling_sweep(seed: int, sizes=SWEEP_SIZES) -> dict[int, tuple[float, float] | None]:
    """Seconds for ``observational`` and ``imitate_pipeline`` on one random
    binary model per size, with about 0.75 bidirected edges per node; ``None``
    where the exact table raises ``TooLargeError``."""
    from causal_imitation import imitate, scm
    from causal_imitation.errors import TooLargeError

    out: dict[int, tuple[float, float] | None] = {}
    for n in sizes:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, n)))
        diagram, space, reward, model_seed = random_instance(rng, n, round(0.75 * n))
        model = scm.random_scm(diagram, model_seed)
        start = time.perf_counter()
        try:
            table = scm.observational(model)
        except TooLargeError:
            out[n] = None
            continue
        mid = time.perf_counter()
        imitate.imitate_pipeline(diagram, space, table, reward)
        out[n] = (mid - start, time.perf_counter() - mid)
    return out
