"""Command-line harness.

Subcommands: ``check`` (graphical verdict), ``backdoor``, ``surrogates``,
``instruments`` (enumerations), ``imitate`` (full pipeline), ``simulate``
(dataset generation), ``experiment`` (bundled studies) and ``fixture``
(bundled example files).  Outputs are byte-deterministic for fixed flags
and seeds.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import fixtures
from .criteria import find_pi_backdoor, graphical_verdict
from .diagram import (
    CausalDiagram,
    PolicySpace,
    _declarations,
    _format_instrument,
    _format_nodes,
    _read_text,
    format_diagram,
    parse_diagram_text,
)
from .enumerators import instruments, surrogate_candidates
from .errors import ParseError
from .identify import format_formula

# numpy and the numeric modules (scm, imitate, experiments) are imported in
# the commands that use them, so the graph-only commands never load them
if TYPE_CHECKING:
    from .scm import DiscreteSCM, JointTable


_MAX_COUNT = 2**63 - 1  # numpy takes sample and row counts as 64-bit ints


def parse_distribution_text(text: str) -> JointTable:
    """Header of variable names, then one row of integer values plus the
    probability per configuration; all configurations must be present."""
    import numpy as np

    from . import scm

    header: list[str] | None = None
    rows: dict[tuple[int, ...], float] = {}
    for lineno, _indented, tokens in _declarations(text):
        if header is None:
            header = tokens
            continue
        if len(tokens) != len(header) + 1:
            raise ParseError(f"expected {len(header)} values plus a probability", lineno)
        try:
            config = tuple(int(t) for t in tokens[:-1])
            p = float(tokens[-1])
        except ValueError:
            raise ParseError("malformed row", lineno) from None
        if min(config) < 0:
            raise ParseError(f"configuration {config} has a negative value", lineno)
        if not (math.isfinite(p) and p >= -scm.ROW_TOL):
            raise ParseError(f"probability {tokens[-1]} is not a finite nonnegative number", lineno)
        if config in rows:
            raise ParseError(f"duplicate configuration {config}", lineno)
        rows[config] = p
    if header is None:
        raise ParseError("empty distribution file")
    if not rows:
        raise ParseError("distribution file has no rows")
    order = sorted(range(len(header)), key=lambda i: header[i])
    variables = tuple(header[i] for i in order)
    if len(set(variables)) != len(variables):
        raise ParseError("duplicate variable in header")
    domains = tuple(max(c[i] for c in rows) + 1 for i in order)
    if math.prod(domains) != len(rows):
        raise ParseError("distribution file must enumerate every configuration")
    probs = np.zeros(domains)
    for config, p in rows.items():
        probs[tuple(config[i] for i in order)] = p
    mass = float(probs.sum())
    if not abs(mass - 1.0) <= scm.MASS_TOL:
        raise ParseError(f"probabilities sum to {mass}, not 1")
    return scm.JointTable(variables, domains, probs)


def _load_graph(value: str) -> tuple[CausalDiagram, PolicySpace | None]:
    if value in fixtures.DIAGRAM_TEXT:
        case = fixtures.diagram_fixture(value)
        return case.diagram, case.space
    return parse_diagram_text(_read_text(value))


def _load_scm(value: str) -> DiscreteSCM:
    if value in fixtures.SCM_DIAGRAM:
        return fixtures.scm_fixture(value)
    from . import scm

    return scm.parse_scm_file(value)


def _space_from_args(args, default_space: PolicySpace | None) -> PolicySpace:
    action = args.action or (default_space.action if default_space else None)
    if action is None:
        raise ValueError("--action is required (no policy line in the graph)")
    if args.inputs is not None:
        return PolicySpace.create(action, args.inputs)
    if default_space is not None and default_space.action == action:
        return default_space
    return PolicySpace.create(action, ())


def _problem(args) -> tuple[CausalDiagram, PolicySpace, str]:
    """The diagram, policy space and reward named by the graph flags."""
    diagram, space0 = _load_graph(args.graph)
    space, reward = _space_from_args(args, space0), args.reward or "Y"
    if reward == space.action:
        raise ValueError(f"the reward {reward} is the action")
    return diagram, space, reward


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    diagram, space, reward = _problem(args)
    status, witness = graphical_verdict(diagram, space, reward)
    lines = [f"verdict {status}"]
    if witness is not None:
        zs = _format_nodes(witness)
        lines.append(f"witness {zs}")
        lines.append(f"prescription pi({space.action}|{zs}) = P({space.action}|{zs})")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_backdoor(args) -> int:
    diagram, space, reward = _problem(args)
    z = find_pi_backdoor(diagram, space, reward, minimal=args.minimal)
    _emit(args, ("admissible " + _format_nodes(z) if z is not None else "admissible none") + "\n")
    return 0


def _cmd_surrogates(args) -> int:
    diagram, space, reward = _problem(args)
    lines = ["surrogate " + _format_nodes(s) for s in surrogate_candidates(diagram, space, reward)]
    _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_instruments(args) -> int:
    diagram, space, reward = _problem(args)
    lines = [
        f"instrument {_format_instrument(s, subspace)} matching {format_formula(formula)}"
        for subspace, s, formula in instruments(diagram, space, reward)
    ]
    _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _cmd_imitate(args) -> int:
    from . import imitate, scm

    diagram, space, reward = _problem(args)
    tolerance = imitate.DEFAULT_TOLERANCE
    if args.dist is not None:
        table = parse_distribution_text(_read_text(args.dist))
    else:
        model = _load_scm(args.scm)
        if args.samples:
            table = scm.empirical_observational(model, args.samples, args.seed or 0)
            tolerance = imitate._sampled_tolerance(args.samples)
        else:
            table = scm.observational(model)
    result = imitate.imitate_pipeline(diagram, space, table, reward, tolerance)
    _emit(args, result.report())
    if args.strict and result.status in ("infeasible", "no-instrument-found"):
        return 1
    return 0


def _cmd_simulate(args) -> int:
    from . import scm

    ds = scm.sample(_load_scm(args.scm), args.n, args.seed)
    lines = ["\t".join(ds.variables)]
    for row in ds.rows:
        lines.append("\t".join(str(int(v)) for v in row))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments

    # an unset flag is None; main refused every value these defaults could hide
    if args.study == "frontdoor-study":
        text = experiments.frontdoor_study(args.models or 1000, args.samples or 0, args.seed, args.workers or 1)
    else:
        text = experiments.highway_binary_report(args.samples or 10000, args.seed)
    _emit(args, text)
    return 0


def _cmd_fixture(args) -> int:
    if args.list:
        lines = [f"diagram {n}" for n in fixtures.diagram_names()]
        lines += [f"scm {n} (diagram {fixtures.SCM_DIAGRAM[n]})" for n in fixtures.scm_names()]
        _emit(args, "\n".join(lines) + "\n")
        return 0
    # a model fixture writes its diagram's graph file, then the model file
    dname = fixtures.SCM_DIAGRAM.get(args.name, args.name)
    if dname not in fixtures.DIAGRAM_TEXT:
        raise ValueError(f"no bundled fixture named {args.name!r}")
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    case = fixtures.diagram_fixture(dname)
    gpath = out / f"{dname}.graph"
    gpath.write_text(format_diagram(case.diagram, case.space))
    written = [gpath]
    if args.name in fixtures.SCM_DIAGRAM:
        from . import scm

        spath = out / f"{args.name}.scm"
        spath.write_text(scm.format_scm(fixtures.scm_fixture(args.name), gpath.name))
        written.append(spath)
    sys.stdout.write("".join(f"wrote {p}\n" for p in written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causal-imitation",
        description="Imitability analysis and policy synthesis for causal diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_flags(p):
        p.add_argument("--graph", required=True, help="graph file or bundled diagram name")
        p.add_argument("--action", help="action node (default: graph policy line)")
        p.add_argument("--inputs", nargs="*", help="policy input nodes")
        p.add_argument("--reward", help="reward node (default: Y)")
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("check", help="graphical imitability verdict")
    graph_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("backdoor", help="canonical policy-backdoor set")
    graph_flags(p)
    p.add_argument("--minimal", action="store_true", help="greedily minimize the set")
    p.set_defaults(func=_cmd_backdoor)

    p = sub.add_parser("surrogates", help="minimal surrogate sets")
    graph_flags(p)
    p.set_defaults(func=_cmd_surrogates)

    p = sub.add_parser("instruments", help="surrogate/subspace instrument pairs")
    graph_flags(p)
    p.set_defaults(func=_cmd_instruments)

    p = sub.add_parser("imitate", help="run the full imitation pipeline")
    graph_flags(p)
    table = p.add_mutually_exclusive_group(required=True)
    table.add_argument("--dist", help="observational distribution file")
    table.add_argument("--scm", help="model file or bundled model name")
    p.add_argument("--samples", type=int, help="empirical table size from --scm (default or 0: exact)")
    p.add_argument("--seed", type=int, help="empirical table seed, with --samples (default: 0)")
    p.add_argument("--strict", action="store_true", help="nonzero exit when infeasible")
    p.set_defaults(func=_cmd_imitate)

    p = sub.add_parser("simulate", help="draw observed rows from a model")
    p.add_argument("--scm", required=True, help="model file or bundled model name")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="bundled studies")
    p.add_argument("study", choices=["frontdoor-study", "highway-binary"])
    p.add_argument("--models", type=int, help="frontdoor-study models (default: 1000)")
    p.add_argument("--samples", type=int,
                   help="empirical table size (default: 0, exact, for frontdoor-study; 10000 for highway-binary)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, help="frontdoor-study worker processes (default: 1)")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("fixture", help="bundled example files")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--list", action="store_true")
    which.add_argument("--name")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_fixture)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    samples = getattr(args, "samples", None)
    if args.command == "simulate" and args.n < 1:
        parser.error("--n must be >= 1")
    if args.command == "simulate" and args.n > _MAX_COUNT:
        parser.error(f"--n must be <= {_MAX_COUNT}")
    if samples is not None and samples < 0:
        parser.error("--samples must be >= 0")
    if samples is not None and samples > _MAX_COUNT:
        parser.error(f"--samples must be <= {_MAX_COUNT}")
    if args.command == "imitate" and args.dist is not None and samples is not None:
        parser.error("--samples needs --scm, not --dist")
    if args.command == "experiment":
        if args.workers is not None and args.workers < 1:
            parser.error("--workers must be >= 1")
        if args.models is not None and args.models < 1:
            parser.error("--models must be >= 1")
        if args.study == "highway-binary":
            for flag in ("models", "workers"):
                if getattr(args, flag) is not None:
                    parser.error(f"--{flag} needs frontdoor-study, not highway-binary")
            if samples == 0:
                parser.error("--samples must be >= 1 with highway-binary")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        parser.error("--seed must be >= 0")
    if args.command == "imitate" and seed is not None and not samples:
        parser.error("--seed needs --samples n with n >= 1")
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
