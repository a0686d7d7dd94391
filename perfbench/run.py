"""Benchmark of the causal-imitation library.

Four closed-loop workloads, one client, no worker pool: an op starts when the
previous one returns.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` prints its per-layer metrics, recorded by
rebinding library names in this process (see tracing.py).  Every op's output
is checked, and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke      # every workload at tiny sizes
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import SpanStat, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
LIBRARY = ROOT / "src" / "causal_imitation" / "__init__.py"
WORKLOADS = ("frontdoor-exact", "frontdoor-sampled", "random-search", "cli-cold")
SETUP_SAMPLES = 3          # this process plus two fresh probe processes
WARMUP_OPS = 20            # in-process warm-up ops, from inputs never timed
# The library's identify caches grow with every new diagram, so a faster
# program that completes more ops would show a higher peak; the in-process
# peak RSS is read at a fixed number of ops instead.
RSS_AFTER_OPS = 400
TAIL_BEYOND = 10           # samples the tail percentile must leave above it
# The ladder stops at p90: on a shared 2-core box the rarer tail is set by
# host stalls.  Over ten runs of frontdoor-exact p99 spread 0.31 (quartile
# distance over median) and the 11th-highest latency 0.36; in another set of
# ten, p95 spread 0.19 on frontdoor-exact and frontdoor-sampled, and in six
# runs p90 spread 0.03 on frontdoor-exact and 0.07 on random-search against
# 0.04 and 0.09 for p95.
TAIL_LADDER = (50, 90)
MIN_OPS = 2 * TAIL_BEYOND  # a timed run goes on until the p50 rung qualifies

# Which end-to-end metric each layer's per-layer metrics should move, and on
# which workload; printed with every traced run.
LAYER_MAP = {
    "imitate": "throughput_ops_s, latency_p50_ms on frontdoor-exact, frontdoor-sampled; "
               "unchanged on random-search, cli-cold",
    "scm": "throughput_ops_s, latency_tail_ms on random-search; a small share of "
           "frontdoor-exact; unchanged on cli-cold",
    "identify": "latency_p50_ms on random-search; unchanged on frontdoor-* (cached after warm-up)",
    "projection": "latency_p50_ms on random-search; unchanged on frontdoor-*",
    "enumerators": "latency_p50_ms on random-search; unchanged on frontdoor-*",
    "criteria": "latency_p50_ms on random-search; unchanged on frontdoor-*",
    "diagram": "latency_p50_ms on random-search; unchanged on frontdoor-*",
    "experiments": "throughput_ops_s on frontdoor-*; unchanged on random-search, cli-cold",
    "cli": "latency_p50_ms on cli-cold and setup_s on every workload; "
           "unchanged in-process throughput_ops_s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every workload at tiny sizes")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- provenance --------------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> str:
    v = importlib.metadata.version
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={v('numpy')} scipy={v('scipy')} "
            f"commit={git_commit()} src_sha256={source_digest()} seed={seed}")


# -- the closed loop -----------------------------------------------------------


def run_op(wl, x, **kw):
    """One op; an exception fails the op and the loop goes on."""
    try:
        return wl.run(x, **kw)
    except Exception as exc:  # the loop must keep running; the failure is reported
        traceback.print_exc(file=sys.stderr)
        return workloads.OpResult(False, "", f"{wl.label(x)}: {type(exc).__name__}: {exc}")


def closed_loop(wl, pool: list, seconds: float, count: int | None = None):
    """Run ops on ``pool`` back to back for ``seconds`` (and at least
    MIN_OPS ops), or for exactly ``count`` ops.  A pool that runs out is
    extended with the next inputs; the time that takes is left out of the
    clock.  Also returns this process's peak RSS after RSS_AFTER_OPS ops,
    a point fixed in work."""
    results, latencies = [], []
    paused = 0.0
    rss_kb = 0
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    while len(results) < (count or math.inf):
        if (count is None and len(results) >= MIN_OPS
                and time.perf_counter() - t0 - paused >= seconds):
            break
        if len(results) == len(pool):
            g0 = time.perf_counter()
            pool = pool + wl.inputs(len(pool), len(pool))
            paused += time.perf_counter() - g0
        s = time.perf_counter()
        results.append(run_op(wl, pool[len(results)]))
        latencies.append(time.perf_counter() - s)
        if len(results) <= RSS_AFTER_OPS:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    busy = time.perf_counter() - t0 - paused
    return results, latencies, busy, time.process_time() - cpu0, rss_kb


def warm_up(wl, count: int) -> None:
    for r in (run_op(wl, x) for x in wl.inputs(workloads.WARMUP_BASE, count)):
        if not r.ok:
            raise RuntimeError(f"warm-up op failed: {r.note}")


def setup_probe(args) -> float:
    """Set-up time of a fresh process doing the same import, input
    generation and warm-up."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def load_spec() -> dict:
    spec = json.loads(SPEC_PATH.read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# -- per-layer metrics -----------------------------------------------------------


def cli_floors(samples: int) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of importing the CLI
    module on top of it."""
    def median_wall(code: str) -> float:
        walls = []
        for _ in range(samples):
            exit_code, _out, err, wall, *_ = workloads.run_child([sys.executable, "-c", code])
            if exit_code != 0:
                raise RuntimeError(f"python -c {code!r} failed: {err.decode()[-300:]}")
            walls.append(wall)
        return statistics.median(walls)

    interpreter = median_wall("pass")
    return interpreter, median_wall("import causal_imitation.cli") - interpreter


def layer_metrics(tracer, names, *, n_ops, traced_s, untraced_s, sweep, floors, command_s):
    """Per-layer values; a sweep size that raised TooLargeError, or that a
    smoke run skips, reads 0."""
    def st(name):
        return tracer.stats.get(name, SpanStat())

    def c(name):
        return tracer.counters.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    op = st("op")
    layers_self = sum(s.self_time for name, s in tracer.stats.items() if name != "op")
    values = {
        "imitate.feasible_frac": ratio(c("imitate.solve_policy.feasible"), st("imitate.solve_policy").calls),
        "imitate.instruments.tried": c("imitate.instruments.tried"),
        "imitate.instruments.identified": c("imitate.instruments.identified"),
        "scm.joint.cells": c("scm.joint.cells"),
        "scm.toolarge": c("scm.joint.raised.TooLargeError"),
        "scm.max_nodes_ok": max([n for n, r in sweep.items() if r is not None], default=0),
        "identify.identify_policy.repeat_frac": ratio(c("identify.identify_policy.repeats"),
                                                      st("identify.identify_policy").calls),
        "identify.identified_frac": ratio(c("identify.identify_policy.identified"),
                                          st("identify.identify_policy").calls),
        "criteria.graphical_frac": ratio(c("criteria.graphical"), st("imitate.imitate_pipeline").calls),
        "experiments.fraction_p_imitable": ratio(c("experiments.p_imitable_sum"),
                                                 st("experiments.frontdoor_study").calls),
        "cli.interpreter_s": floors[0],
        "cli.import_s": floors[1],
        "cli.command_s": command_s,
        "trace.op_s": op.total,
        "trace.layers_self_s": layers_self,
        "trace.unattributed_s": op.self_time,
        "trace.unattributed_frac": ratio(op.self_time, op.total),
        "trace.throughput_ops_s": ratio(n_ops, traced_s),
        "trace.untraced_throughput_ops_s": ratio(n_ops, untraced_s),
        "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
    }
    for n in workloads.SWEEP_SIZES:
        r = sweep.get(n)
        values[f"sweep.n{n:02d}.observational_s"] = r[0] if r else 0.0
        values[f"sweep.n{n:02d}.pipeline_s"] = r[1] if r else 0.0
    fields = {"calls": "calls", "s": "total", "self_s": "self_time", "yielded": "yielded"}
    for name in names:
        if name not in values:
            span, field = name.rsplit(".", 1)
            values[name] = getattr(st(span), fields[field])
    return values


def merge_child_trace(tracer, trace: dict, wall: float) -> None:
    """Add a traced CLI child's spans; the op's wall time minus the child's
    root spans is the unattributed part (interpreter start and exit)."""
    roots = 0.0
    for name, (calls, total, self_time, yielded) in trace["stats"].items():
        s = tracer.stat(name)
        s.calls, s.total, s.self_time, s.yielded = (
            s.calls + calls, s.total + total, s.self_time + self_time, s.yielded + yielded)
        if name in ("cli.import", "cli.main"):
            roots += total
    for name, value in trace["counters"].items():
        tracer.count(name, value)
    op = tracer.stats.setdefault("op", SpanStat())
    op.calls += 1
    op.total += wall
    op.self_time += wall - roots


def traced_pass(wl, inputs: list):
    """Ops on ``inputs`` with every library name rebound."""
    tracer = Tracer()
    results = []
    in_process = not isinstance(wl, workloads.CliCold)
    bound = tracer.install() if in_process else 0
    t0 = time.perf_counter()
    try:
        for x in inputs:
            s = time.perf_counter()
            if in_process:
                with tracer.span("op"):
                    results.append(run_op(wl, x))
            else:
                r = run_op(wl, x, traced=True)
                results.append(r)
                if r.trace is not None:
                    merge_child_trace(tracer, r.trace, time.perf_counter() - s)
                    bound = r.trace["bound"]
    finally:
        tracer.uninstall()
    return tracer, results, time.perf_counter() - t0, bound


# -- one run -------------------------------------------------------------------


def percentile_tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile of TAIL_LADDER with at least TAIL_BEYOND
    samples above it, as (value, percentile); the maximum when no rung
    qualifies."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in reversed(TAIL_LADDER):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def measure(args, units: dict, smoke: bool = False) -> tuple[dict, list[str]]:
    """Set up, run and check one workload; return the result object and the
    report lines."""
    wl = workloads.make(args.workload, args.seed)
    if smoke:
        count = 1
    elif args.trace:
        count = max(2, round(wl.nominal_ops_s * args.seconds / 2))
    else:
        count = None
    pool = wl.inputs(0, count or max(8, math.ceil(wl.nominal_ops_s * args.seconds * 1.5)))
    traced_inputs = wl.inputs(workloads.TRACED_BASE, count) if args.trace else []
    cli = isinstance(wl, workloads.CliCold)
    warm_up(wl, (0 if smoke else 1) if cli else (1 if smoke else WARMUP_OPS))
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        return {"setup_s": setup_s}, []

    lines = [f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
             f"provenance {provenance(args.seed)}"]
    results, latencies, busy, cpu, rss_kb = closed_loop(wl, pool, args.seconds, count)
    if args.trace:
        tracer, traced, traced_s, bound = traced_pass(wl, traced_inputs)
        lines.append(f"traced pass: {len(traced)} ops with {bound} library names rebound "
                     f"{'in each CLI process' if cli else 'in this process'}, "
                     f"after an untraced pass over as many other ops")
        results = results + traced

    failures = [r.note for r in results if not r.ok]
    failed = len(failures)
    run_problems = wl.check_run(results)
    wrong = [r.note for r in results if r.wrong] + run_problems
    lines.append(f"ops attempted={len(results)} failed={failed}")
    lines += [f"FAILED {note}" for note in failures[:10]]
    lines += [f"WRONG RUN OUTPUT {note}" for note in run_problems]
    lines.append(f"digest sha256:{workloads.digest(results)} over the outputs of {len(results)} ops")

    if args.trace == 0:
        probe = wl.known_defect_probe()
        if probe:
            lines.append(f"known defect (ROADMAP item 4(b)) {probe}")
        setups = [setup_s] + [setup_probe(args) for _ in range(0 if smoke else SETUP_SAMPLES - 1)]
        tail, pct = percentile_tail(latencies)
        if cli:
            cpu = sum(r.cpu_s for r in results)
            rss_mb = max(r.rss_kb for r in results) / 1024
        else:
            rss_mb = rss_kb / 1024
        values = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": len(results) / busy,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "cpu_ms_per_op": cpu / len(results) * 1e3,
            "ok_frac": (len(results) - failed) / len(results),
            "peak_rss_mb": rss_mb,
        }
        lines.append("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
        beyond = len(latencies) - math.ceil(pct / 100 * len(latencies))
        lines.append(f"latency_tail_ms is p{pct:g} of {len(latencies)} samples, {beyond} beyond it")
        lines.append(f"failed_frac {failed / len(results):.6g} ratio")
    else:
        sweep_sizes = (8,) if smoke else workloads.SWEEP_SIZES
        sweep = workloads.scaling_sweep(args.seed, sweep_sizes)
        floors = cli_floors(3) if not smoke else cli_floors(1) if cli else (0.0, 0.0)
        command_s = 0.0
        if cli:
            command_s = statistics.median(latencies) - floors[0] - floors[1]
        values = layer_metrics(tracer, units, n_ops=len(traced), traced_s=traced_s,
                               untraced_s=busy, sweep=sweep, floors=floors, command_s=command_s)
        lines.append(f"attribution: layer self times {values['trace.layers_self_s']:.4f} s + "
                     f"unattributed {values['trace.unattributed_s']:.4f} s = traced op time "
                     f"{values['trace.op_s']:.4f} s")
        lines += [f"layer {k}: {v}" for k, v in LAYER_MAP.items()]

    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for name in units:
        lines.append(f"{name} {values[name]:.6g} {units[name]}")
    result = {
        "correct": not wrong,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not LIBRARY.is_file() or not SPEC_PATH.is_file():
        print(f"perfbench: no library at {LIBRARY.relative_to(ROOT)} or no BENCHMARK.json; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    if args.setup_only:
        print(json.dumps(measure(args, spec[0])[0]))
        return 0
    if not args.smoke:
        result, lines = measure(args, spec[args.trace])
        for line in lines:
            print("# " + line)
        print(json.dumps(result))
        return 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.trace, args.seconds = name, trace, 1.0
            result, lines = measure(args, spec[trace], smoke=True)
            print(f"# smoke {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
