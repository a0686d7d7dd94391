import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causal_imitation import experiments, fixtures
from causal_imitation.cli import main, parse_distribution_text
from causal_imitation.diagram import format_diagram, parse_diagram_text
from causal_imitation.errors import ParseError
from causal_imitation.scm import JointTable, format_scm, observational, parse_scm_file, parse_scm_text

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"


def format_distribution(table) -> str:
    """A ``--dist`` file for ``table``: a header naming the variables, then
    one row per configuration with its probability to 17 digits."""
    lines = [" ".join(table.variables)]
    for config in np.ndindex(*table.domains):
        lines.append(" ".join(str(v) for v in config) + f" {float(table.probs[config]):.17g}")
    return "\n".join(lines) + "\n"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_check_backdoor_fixture(capsys):
    rc, out = run(capsys, "check", "--graph", "highway_adjustable")
    assert rc == 0
    assert out == (
        "verdict imitable-graphical\n"
        "witness Z\n"
        "prescription pi(X|Z) = P(X|Z)\n"
    )


def test_check_not_imitable(capsys):
    rc, out = run(capsys, "check", "--graph", "highway_opaque")
    assert rc == 0 and out == "verdict not-imitable-graphical\n"


def test_check_from_file(tmp_path, capsys):
    case = fixtures.diagram_fixture("highway_adjustable")
    path = tmp_path / "g.graph"
    path.write_text(format_diagram(case.diagram, case.space))
    rc, out = run(capsys, "check", "--graph", str(path))
    assert rc == 0 and "witness Z" in out


def test_check_flag_overrides(tmp_path, capsys):
    # a graph file without a policy line, with the space given by flags
    case = fixtures.diagram_fixture("highway_adjustable")
    path = tmp_path / "g.graph"
    path.write_text(format_diagram(case.diagram))
    rc, out = run(capsys, "check", "--graph", str(path),
                  "--action", "X", "--inputs", "Z", "--reward", "Y")
    assert rc == 0 and "witness Z" in out
    # overriding the inputs to nothing removes the admissible set
    rc, out = run(capsys, "check", "--graph", str(path), "--action", "X", "--inputs")
    assert rc == 0 and out == "verdict not-imitable-graphical\n"


def test_backdoor_and_surrogates(capsys):
    rc, out = run(capsys, "backdoor", "--graph", "highway_sideinfo")
    assert rc == 0 and out == "admissible Z\n"
    rc, out = run(capsys, "surrogates", "--graph", "frontdoor_latent")
    assert rc == 0 and out == "surrogate S\n"


def test_instruments(capsys):
    rc, out = run(capsys, "instruments", "--graph", "frontdoor_confounded")
    assert rc == 0
    assert out.startswith("instrument surrogate S subspace_inputs - matching sum_{")
    assert "pi(X)" in out and out.count("\n") == 1


def test_imitate_with_bundled_model(capsys):
    rc, out = run(capsys, "imitate", "--graph", "frontdoor_observed",
                  "--scm", "frontdoor_mix")
    assert rc == 0
    assert out.startswith("status p-imitable\n")


def test_imitate_strict_exit_code(capsys):
    rc, out = run(capsys, "imitate", "--graph", "highway_opaque",
                  "--scm", "highway_xor", "--strict")
    assert rc == 1
    assert out.startswith("status no-instrument-found")
    rc, _ = run(capsys, "imitate", "--graph", "highway_opaque", "--scm", "highway_xor")
    assert rc == 0


@pytest.mark.parametrize("extra", [[], ["--samples", "5"], ["--samples", "20"]])
def test_imitate_with_an_undefined_instrument_reports_a_verdict(capsys, extra):
    # the only instrument divides by an empty cell of these tables (P(Y|W,X)
    # on the exact parity table, P(W|X) or P(Y|W,X) on the small samples):
    # the search finds no instrument instead of aborting
    model = "parity_trap" if not extra else "frontdoor_mix"
    argv = ["imitate", "--graph", "frontdoor_observed", "--scm", model, *extra]
    assert run(capsys, *argv) == (0, "status no-instrument-found\n")
    assert run(capsys, *argv, "--strict") == (1, "status no-instrument-found\n")


def test_no_bundled_model_aborts_on_an_empty_cell(capsys):
    # small samples leave cells empty; every run ends in a verdict
    for model in fixtures.scm_names():
        for samples in ("5", "20", "100", "1000"):
            for seed in ([], ["--seed", "1"], ["--seed", "2"], ["--seed", "7"]):
                argv = ["imitate", "--graph", fixtures.SCM_DIAGRAM[model], "--scm", model,
                        "--samples", samples, *seed]
                rc, out = run(capsys, *argv)
                assert (rc, capsys.readouterr().err) == (0, ""), argv
                assert out.startswith("status "), argv


@pytest.mark.parametrize("graph, scm, missing", [
    ("frontdoor_confounded", "frontdoor_mix", "S"),
    ("backdoor_observed", "highway_xor", "Y"),
    ("highway_opaque", "frontdoor_mix", "Z"),
])
def test_imitate_rejects_table_missing_observed_nodes(capsys, graph, scm, missing):
    rc = main(["imitate", "--graph", graph, "--scm", scm])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and missing in captured.err


def test_imitate_with_an_empty_dist_path_is_an_error(capsys):
    # an empty --dist is a path like any other, not a missing flag
    rc = main(["imitate", "--graph", "frontdoor_observed", "--dist", ""])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and captured.err.startswith("error: ")


def test_imitate_from_distribution_file(tmp_path, capsys):
    table = observational(fixtures.scm_fixture("frontdoor_mix"))
    path = tmp_path / "obs.dist"
    path.write_text(format_distribution(table))
    rc, out = run(capsys, "imitate", "--graph", "frontdoor_observed", "--dist", str(path))
    assert rc == 0 and out.startswith("status p-imitable")


def test_imitate_with_empirical_table(capsys):
    rc, out = run(capsys, "imitate", "--graph", "frontdoor_observed",
                  "--scm", "frontdoor_mix", "--samples", "200000", "--seed", "5")
    assert rc == 0
    assert out.startswith("status p-imitable")
    rc2, out2 = run(capsys, "imitate", "--graph", "frontdoor_observed",
                    "--scm", "frontdoor_mix", "--samples", "200000", "--seed", "5")
    assert out == out2


def test_simulate_output_and_determinism(tmp_path, capsys):
    rc, out1 = run(capsys, "simulate", "--scm", "frontdoor_mix", "--n", "5", "--seed", "9")
    rc2, out2 = run(capsys, "simulate", "--scm", "frontdoor_mix", "--n", "5", "--seed", "9")
    assert rc == rc2 == 0 and out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "W\tX\tY"
    assert len(lines) == 6


@pytest.mark.parametrize("argv, message", [
    (["imitate", "--graph", "frontdoor_observed", "--scm", "frontdoor_mix", "--samples", "-5"],
     "--samples must be >= 0"),
    (["experiment", "frontdoor-study", "--samples", "-1"], "--samples must be >= 0"),
    (["experiment", "highway-binary", "--samples", "-1"], "--samples must be >= 0"),
    (["experiment", "frontdoor-study", "--models", "2", "--workers", "0"], "--workers must be >= 1"),
    (["experiment", "frontdoor-study", "--models", "0"], "--models must be >= 1"),
    (["imitate", "--graph", "frontdoor_observed", "--scm", "frontdoor_mix", "--samples", "10",
      "--seed", "-1"], "--seed must be >= 0"),
    (["simulate", "--scm", "frontdoor_mix", "--n", "5", "--seed", "-1"], "--seed must be >= 0"),
    (["experiment", "frontdoor-study", "--models", "2", "--seed", "-1"], "--seed must be >= 0"),
    # counts past int64 ended in an OverflowError traceback
    (["imitate", "--graph", "frontdoor_observed", "--scm", "frontdoor_mix", "--samples", str(2**63)],
     f"--samples must be <= {2**63 - 1}"),
    (["experiment", "highway-binary", "--samples", str(2**63)], f"--samples must be <= {2**63 - 1}"),
    (["experiment", "frontdoor-study", "--samples", str(2**63)], f"--samples must be <= {2**63 - 1}"),
    (["simulate", "--scm", "frontdoor_mix", "--n", str(10**20)], f"--n must be <= {2**63 - 1}"),
    # a --dist table is used as given: --scm and --samples were dropped
    (["imitate", "--graph", "frontdoor_observed", "--dist", "obs.dist", "--scm", "frontdoor_mix"],
     "argument --scm: not allowed with argument --dist"),
    (["imitate", "--graph", "frontdoor_observed", "--dist", "obs.dist", "--samples", "50"],
     "--samples needs --scm, not --dist"),
    (["imitate", "--graph", "frontdoor_observed", "--dist", "obs.dist", "--samples", "0"],
     "--samples needs --scm, not --dist"),
    # --seed draws an empirical table, so it was ignored without one
    (["imitate", "--graph", "frontdoor_observed", "--scm", "frontdoor_mix", "--seed", "5"],
     "--seed needs --samples n with n >= 1"),
    (["imitate", "--graph", "frontdoor_observed", "--scm", "frontdoor_mix", "--samples", "0", "--seed", "5"],
     "--seed needs --samples n with n >= 1"),
    (["imitate", "--graph", "frontdoor_observed", "--dist", "obs.dist", "--seed", "5"],
     "--seed needs --samples n with n >= 1"),
    # a missing table or fixture flag exited 1 from a hand-written check
    (["imitate", "--graph", "frontdoor_observed"], "one of the arguments --dist --scm is required"),
    (["fixture"], "one of the arguments --list --name is required"),
    # --list silently won over --name
    (["fixture", "--list", "--name", "frontdoor_mix"], "argument --name: not allowed with argument --list"),
    # highway-binary ignored --models and --workers, and read --samples 0 as 10000
    (["experiment", "highway-binary", "--samples", "0"], "--samples must be >= 1 with highway-binary"),
    (["experiment", "highway-binary", "--models", "7"], "--models needs frontdoor-study, not highway-binary"),
    (["experiment", "highway-binary", "--workers", "2"], "--workers needs frontdoor-study, not highway-binary"),
    (["experiment", "highway-binary", "--samples", "0", "--workers", "2", "--models", "7"],
     "--models needs frontdoor-study, not highway-binary"),
])
def test_bad_flags_rejected_by_parser(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--graph", "backdoor_observed"],
    ["backdoor", "--graph", "backdoor_observed"],
    ["surrogates", "--graph", "frontdoor_latent"],
    ["instruments", "--graph", "frontdoor_latent"],
    ["imitate", "--graph", "frontdoor_observed", "--scm", "frontdoor_mix"],
], ids=lambda argv: argv[0])
def test_reward_equal_to_the_action_is_rejected(capsys, argv):
    # check and surrogates answered, the other three failed with three messages
    rc = main(argv + ["--reward", "X"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: the reward X is the action\n"


def test_simulate_rejects_zero_rows(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scm", "frontdoor_mix", "--n", "0"])
    assert exc.value.code == 2


def test_experiment_reports_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["experiment", "frontdoor-study", "--models", "12", "--out", str(out1)]) == 0
    assert main(["experiment", "frontdoor-study", "--models", "12", "--workers", "2",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("cpus, workers, pool", [(2, 7, 2), (2, 2, 2), (64, 3, 3), (1, 5, 1)])
def test_study_pool_is_capped_at_the_usable_cpus(monkeypatch, cpus, workers, pool):
    # a fork pool starts all its workers at once: --workers 5000 forked 5000
    # processes; the batches stay one per worker, so the bytes do not change
    import concurrent.futures

    sizes, batches = [], []

    class InProcessPool:
        """Records max_workers and maps in this process: no process starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    batch = experiments._frontdoor_batch
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(experiments, "_frontdoor_batch", lambda args: batches.append(args[1:3]) or batch(args))
    assert experiments.frontdoor_study(9, 1000, 4, workers) == experiments.frontdoor_study(9, 1000, 4)
    assert sizes == [pool]
    assert batches[:workers] == [(9 * w // workers, 9 * (w + 1) // workers) for w in range(workers)]


@pytest.mark.parametrize("models, workers, cuts", [
    (7, 1, (0, 2, 4, 7)),
    (7, 2, (0, 1, 3, 5, 7)),
    (9, 5, (0, 1, 3, 5, 7, 9)),
    (3, 10**12, (0, 1, 2, 3)),
])
def test_study_cuts_its_instances_once(monkeypatch, models, workers, cuts):
    # contiguous batches of at most _CHUNK instances, the same number for
    # every worker, each computed by one _frontdoor_batch call
    import concurrent.futures
    from contextlib import nullcontext
    from types import SimpleNamespace

    want = experiments.frontdoor_study(models, 1000, 4)
    batches = []
    batch = experiments._frontdoor_batch
    monkeypatch.setattr(experiments, "_CHUNK", 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: nullcontext(SimpleNamespace(map=map)))
    monkeypatch.setattr(experiments, "_frontdoor_batch", lambda args: batches.append(args[1:3]) or batch(args))
    assert experiments.frontdoor_study(models, 1000, 4, workers) == want
    assert batches == list(zip(cuts, cuts[1:]))


def test_study_workers_beyond_the_models_run_one_slice_each():
    # --workers had no upper bound: 10**12 workers built a list of 10**12 + 1
    # cut points before the empty slices were dropped
    assert experiments.frontdoor_study(3, workers=10**12) == experiments.frontdoor_study(3, workers=1)


@pytest.mark.parametrize("kwargs, golden", [
    ({"models": 200}, "frontdoor_study_m200.txt"),
    ({"models": 100, "samples": 100_000}, "frontdoor_study_m100_s100000.txt"),
])
def test_frontdoor_study_report_bytes(kwargs, golden):
    assert experiments.frontdoor_study(seed=0, **kwargs) == (DATA / golden).read_text()


def test_experiment_highway(capsys):
    rc, out = run(capsys, "experiment", "highway-binary")
    assert rc == 0
    assert "exact_reward_marginal_policy 0.4721359550" in out
    assert "exact_reward_sideinfo_policy 0.2917960675" in out
    assert "exact_bias 0.1803398875" in out


@pytest.mark.parametrize("argv, message", [
    # both raised SystemExit out of main() instead of returning 1
    (["check", "--graph", "{tmp}/nopolicy.graph"], "--action is required (no policy line in the graph)"),
    (["fixture", "--name", "nope", "--out", "{tmp}/out"], "no bundled fixture named 'nope'"),
    # numpy's refusal to allocate 8 PiB of draws ended in a traceback
    (["simulate", "--scm", "frontdoor_mix", "--n", str(2**50)], "Unable to allocate"),
], ids=["no-action", "no-fixture", "simulate-memory"])
def test_command_errors_return_one(tmp_path, capsys, argv, message):
    (tmp_path / "nopolicy.graph").write_text("node X obs\nnode Y obs\nedge X -> Y\n")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


def test_fixture_list_and_roundtrip(tmp_path, capsys):
    rc, out = run(capsys, "fixture", "--list")
    assert rc == 0
    for name in fixtures.diagram_names():
        assert f"diagram {name}" in out
    # every bundled file round-trips: parse -> serialize -> parse
    for name in fixtures.diagram_names():
        assert main(["fixture", "--name", name, "--out", str(tmp_path)]) == 0
        text = (tmp_path / f"{name}.graph").read_text()
        d1, s1 = parse_diagram_text(text)
        d2, s2 = parse_diagram_text(format_diagram(d1, s1))
        assert (d1, s1) == (d2, s2)
    for name in fixtures.scm_names():
        assert main(["fixture", "--name", name, "--out", str(tmp_path)]) == 0
        m1 = parse_scm_file(tmp_path / f"{name}.scm")
        m2 = parse_scm_text(format_scm(m1, "g.graph"), m1.diagram)
        assert m1.diagram == m2.diagram
        assert format_scm(m2, "g.graph") == format_scm(m1, "g.graph")
    capsys.readouterr()


GUARDED = ("numpy", "scipy.optimize", "scipy.sparse", "scipy.linalg", "concurrent.futures.process")


@pytest.mark.parametrize("argv, loaded", [
    # the graph-only commands (check, instruments, fixture --list, backdoor,
    # surrogates) load no numpy; the others load numpy and nothing else guarded
    (["check", "--graph", "frontdoor_latent"], []),
    (["instruments", "--graph", "frontdoor_observed"], []),
    (["experiment", "highway-binary"], ["numpy"]),
    (["imitate", "--graph", "highway_binary", "--scm", "highway_golden"], ["numpy"]),
    (["fixture", "--list"], []),
    # the LP commands load HiGHS's binding alone, not the scipy.optimize package
    (["imitate", "--graph", "frontdoor_observed", "--scm", "frontdoor_mix"], ["numpy"]),
    (["imitate", "--graph", "frontdoor_observed", "--scm", "frontdoor_mix", "--samples", "100000"], ["numpy"]),
    (["experiment", "frontdoor-study", "--models", "4"], ["numpy"]),
    (["backdoor", "--graph", "highway_adjustable", "--minimal"], []),
    (["surrogates", "--graph", "frontdoor_observed"], []),
])
def test_commands_import_only_what_they_use(argv, loaded):
    # a fresh interpreter per command: the modules a command loads are part
    # of its start-up cost
    code = (
        "import json, sys\n"
        "from causal_imitation.cli import main\n"
        f"rc = main({argv!r})\n"
        f"print(json.dumps([rc, [m for m in {GUARDED!r} if m in sys.modules]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, loaded]


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("node A obs\nnode A obs\n")
    rc = main(["check", "--graph", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 2" in err


@pytest.mark.parametrize("line, bad", [
    (3, "domain X two"),
    (3, "domain X 0"),
    (5, "exo UW 0.9 heavy"),
    (5, "exo UW 0.5 0.1"),
    (5, "exo UW nan 1.0"),
    (10, "  0.0 1.0 0.0"),
    (10, "  0.5 0.1"),
    (10, "  1.0 0.000009"),
    (13, "mech W given X exo UW"),
    (8, "mech W given W exo UW"),
    (1, "graph g.graph extra"),  # two file names
    (4, "graph nothere.graph"),  # a header after the first declaration
    (4, "domain Q 2"),  # a node outside the diagram
    (2, "domain W 1"),
])
def test_scm_parse_errors_carry_line(tmp_path, capsys, line, bad):
    case = fixtures.diagram_fixture("frontdoor_observed")
    (tmp_path / "g.graph").write_text(format_diagram(case.diagram, case.space))
    lines = format_scm(fixtures.scm_fixture("frontdoor_mix"), "g.graph").splitlines()
    lines[line - 1] = bad
    path = tmp_path / "bad.scm"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        parse_scm_file(path)
    assert exc.value.line == line
    assert main(["simulate", "--scm", str(path), "--n", "1"]) == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_scm_model_errors_are_parse_errors(tmp_path, capsys):
    # a model the parser reads but the model checks reject: W and X share
    # UX, and the diagram declares no W <-> X edge
    case = fixtures.diagram_fixture("frontdoor_observed")
    (tmp_path / "g.graph").write_text(format_diagram(case.diagram, case.space))
    text = format_scm(fixtures.scm_fixture("frontdoor_mix"), "g.graph")
    path = tmp_path / "bad.scm"
    path.write_text(text.replace("mech W given X exo UW", "mech W given X exo UX"))
    with pytest.raises(ParseError, match="exogenous UX confounds W and X"):
        parse_scm_file(path)
    assert main(["simulate", "--scm", str(path), "--n", "1"]) == 2
    assert capsys.readouterr().err.startswith("parse error: exogenous UX confounds")


@pytest.mark.parametrize("name, argv", [
    ("g.graph", ["check", "--graph", "g.graph"]),
    ("t.dist", ["imitate", "--graph", "frontdoor_observed", "--dist", "t.dist"]),
    ("m.scm", ["simulate", "--scm", "m.scm", "--n", "1"]),
    ("g.graph", ["simulate", "--scm", "m.scm", "--n", "1"]),  # the graph a model file names
])
def test_bytes_that_are_not_utf8_are_parse_errors(tmp_path, capsys, monkeypatch, name, argv):
    # a byte such as 0xff ended in "'utf-8' codec can't decode" and exit 1,
    # with no line number
    case = fixtures.diagram_fixture("frontdoor_observed")
    model = fixtures.scm_fixture("frontdoor_mix")
    texts = {"g.graph": format_diagram(case.diagram, case.space), "m.scm": format_scm(model, "g.graph"),
             "t.dist": format_distribution(observational(model))}
    for file, text in texts.items():
        lines = [line.encode() for line in text.splitlines()]
        if file == name:
            lines[1] += b" \xff"
        (tmp_path / file).write_bytes(b"\n".join(lines) + b"\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "parse error: line 2: not UTF-8 text\n"


def test_distribution_roundtrip():
    table = observational(fixtures.scm_fixture("highway_golden"))
    again = parse_distribution_text(format_distribution(table))
    assert again.variables == table.variables
    assert np.allclose(again.probs, table.probs, atol=0)


@given(st.data())
def test_distribution_roundtrip_random_tables(data):
    n = data.draw(st.integers(1, 4))
    variables = tuple(sorted(data.draw(st.sets(st.sampled_from("ABCDWXYZ"), min_size=n, max_size=n))))
    domains = tuple(data.draw(st.lists(st.integers(2, 3), min_size=n, max_size=n)))
    size = math.prod(domains)
    weights = np.array(data.draw(st.lists(st.integers(0, 1000), min_size=size, max_size=size).filter(any)),
                       dtype=float)
    table = JointTable(variables, domains, (weights / weights.sum()).reshape(domains))
    again = parse_distribution_text(format_distribution(table))
    assert (again.variables, again.domains) == (table.variables, table.domains)
    assert again.probs.tobytes() == table.probs.tobytes()


# tokens a distribution file may hold, good and bad: values, probabilities,
# non-finite and overflowing numbers, other numerals, comments and whitespace
_TOKENS = ["0", "1", "2", "-1", "-0", "+1", "1_0", "0.25", "0.5", "1.0", "1e-13", "-1e-13", "nan", "inf",
           "-inf", "1e400", "0x1", "\u0663", "9" * 5000, "#", "a#b", "A", "B", "\t", "\x0c", "\x85"]
_token = st.one_of(st.sampled_from(_TOKENS), st.integers(-3, 1 << 70).map(str),
                   st.floats().map(repr), st.text(max_size=3))
_line = st.lists(_token, max_size=5).map(" ".join)


@st.composite
def _edited_distribution_text(draw) -> str:
    """A valid file of up to three variables with up to two lines dropped,
    doubled, inserted or given a token from ``_TOKENS``."""
    n = draw(st.integers(1, 3))
    domains = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    names = draw(st.lists(st.sampled_from("ABCD"), min_size=n, max_size=n))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=math.prod(domains),
                                     max_size=math.prod(domains))), dtype=float)
    lines = [" ".join(names)] + [" ".join(map(str, c)) + f" {p!r}"
                                 for c, p in zip(np.ndindex(*domains), weights / weights.sum())]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "double", "insert", "token"]))
        if edit == "drop":
            lines.pop(i)
        elif edit == "double":
            lines.insert(i, lines[i])
        elif edit == "insert":
            lines.insert(i, draw(_line))
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_token)
            lines[i] = " ".join(tokens)
        if not lines:
            break
    return "\n".join(lines)


@settings(max_examples=300)
@given(st.one_of(st.text(), st.lists(_line, max_size=12).map("\n".join), _edited_distribution_text()))
def test_distribution_parser_fuzz(text):
    # any text parses into a valid table or raises ParseError, nothing else
    try:
        table = parse_distribution_text(text)
    except ParseError:
        return
    assert isinstance(table, JointTable)
    assert table.variables == tuple(sorted(set(table.variables)))
    assert table.probs.shape == table.domains
    assert np.isfinite(table.probs).all() and abs(table.probs.sum() - 1.0) <= 1e-9


# tokens a graph file may hold: keywords, arrows, node names (the reserved
# decision-node name among them), comments and stray text
_GRAPH_TOKENS = ["node", "edge", "policy", "action", "inputs", "obs", "lat", "->", "<->", "<-", "-",
                 "A", "B", "C", "X", "X^", "#", "a#b", "\t", "\u0663"]
_name = st.sampled_from(["A", "B", "C", "X", "X^"])
_graph_line = st.one_of(
    st.lists(st.one_of(st.sampled_from(_GRAPH_TOKENS), st.text(max_size=3)), max_size=6).map(" ".join),
    st.tuples(_name, st.sampled_from(["obs", "lat"])).map("node {0[0]} {0[1]}".format),
    st.tuples(_name, st.sampled_from(["->", "<->"]), _name).map("edge {0[0]} {0[1]} {0[2]}".format),
    st.tuples(_name, st.lists(_name, max_size=3)).map(lambda p: f"policy action {p[0]} inputs {' '.join(p[1])}"),
)


@st.composite
def _graph_text(draw) -> str:
    """Node declarations for some names, then lines from ``_graph_line``,
    in any order."""
    names = draw(st.lists(_name, unique=True, max_size=5))
    lines = [f"node {n} {draw(st.sampled_from(['obs', 'lat']))}" for n in names]
    lines += draw(st.lists(_graph_line, max_size=6))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300)
@given(st.one_of(st.text(), _graph_text()))
def test_graph_parser_fuzz(text):
    # token soup parses into a diagram that round-trips through
    # format_diagram, or raises ParseError, nothing else
    try:
        diagram, space = parse_diagram_text(text)
    except ParseError:
        return
    assert parse_diagram_text(format_diagram(diagram, space)) == (diagram, space)


@settings(max_examples=300)
@given(st.sampled_from(["graph", "distribution"]), st.one_of(st.text(), _graph_text(), _edited_distribution_text()),
       st.data())
def test_graph_and_distribution_files_ignore_indents_and_comments(kind, text, data):
    # the shared line reader: an indent, a trailing comment or a comment
    # line changes nothing in a graph or distribution file, neither the
    # result nor a parse error's message and line
    parse = parse_diagram_text if kind == "graph" else parse_distribution_text
    pads = st.tuples(st.sampled_from(["", " ", "\t", " \t "]), st.sampled_from(["", "#", "  # note", "#a#b"]))
    lines = text.splitlines()
    padded = "\n".join(indent + line + comment
                       for line, (indent, comment) in zip(lines, data.draw(st.lists(
                           pads, min_size=len(lines), max_size=len(lines)))))

    def outcome(text):
        try:
            result = parse(text)
        except ParseError as exc:
            return str(exc), exc.line
        if kind == "graph":
            return format_diagram(*result)
        return result.variables, result.domains, result.probs.tobytes()

    assert outcome(padded) == outcome("\n".join(lines))


@st.composite
def _edited_scm_text(draw) -> tuple[str, object]:
    """A bundled model file and its diagram, with up to three lines
    dropped, doubled, inserted or given another token."""
    name = draw(st.sampled_from(fixtures.scm_names()))
    model = fixtures.scm_fixture(name)
    lines = format_scm(model, f"{name}.graph").splitlines()
    token = st.one_of(st.sampled_from(["mech", "given", "exo", "domain", "graph", "X", "Y", "U", "0", "1",
                                       "2", "-1", "0.5", "nan", "inf", "1e400", "#", "  0.5 0.5"]),
                      st.floats().map(repr), st.text(max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "double", "insert", "token"]))
        if edit == "drop":
            lines.pop(i)
        elif edit == "double":
            lines.insert(i, lines[i])
        elif edit == "insert":
            lines.insert(i, " ".join(draw(st.lists(token, max_size=5))))
        else:
            tokens = lines[i].split(" ") or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(token)
            lines[i] = " ".join(tokens)
        if not lines:
            break
    return "\n".join(lines), model.diagram


@settings(max_examples=300)
@given(_edited_scm_text())
def test_scm_parser_fuzz(case):
    # an edited model file parses into a model or raises ParseError,
    # nothing else
    text, diagram = case
    try:
        parse_scm_text(text, diagram)
    except ParseError:
        pass


def test_distribution_requires_a_row(tmp_path, capsys):
    with pytest.raises(ParseError, match="no rows"):
        parse_distribution_text("A B  # a header alone\n")
    path = tmp_path / "header.dist"
    path.write_text("A B\n")
    assert main(["imitate", "--graph", "highway_binary", "--dist", str(path)]) == 2
    assert "no rows" in capsys.readouterr().err


def test_distribution_requires_all_rows():
    with pytest.raises(ParseError, match="every configuration"):
        parse_distribution_text("A B\n0 0 0.5\n1 1 0.5\n")


def test_distribution_rejects_negative_value(tmp_path, capsys):
    # four rows that would fill a 2x2 table if -1 indexed from the end
    text = "A B\n0 0 0.25\n0 1 0.25\n1 0 0.25\n-1 1 0.25\n"
    with pytest.raises(ParseError, match="negative value") as exc:
        parse_distribution_text(text)
    assert exc.value.line == 5
    path = tmp_path / "neg.dist"
    path.write_text(text)
    assert main(["imitate", "--graph", "highway_binary", "--dist", str(path)]) == 2
    assert "line 5:" in capsys.readouterr().err


@pytest.mark.parametrize("value, message, line", [
    ("nan", "probability nan is not a finite nonnegative number", 7),
    ("inf", "probability inf is not a finite nonnegative number", 7),
    ("-0.0625", "probability -0.0625 is not a finite nonnegative number", 7),
    ("0.5", "probabilities sum to 1.4375, not 1", None),
])
def test_distribution_rejects_bad_probabilities(tmp_path, capsys, value, message, line):
    # a uniform 16-row S W X Y table with its sixth row replaced
    rows = [" ".join(str(v) for v in np.unravel_index(i, (2, 2, 2, 2)))
            + " " + (value if i == 5 else "0.0625") for i in range(16)]
    text = "S W X Y\n" + "\n".join(rows) + "\n"
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse_distribution_text(text)
    assert exc.value.line == line
    path = tmp_path / "bad.dist"
    path.write_text(text)
    assert main(["imitate", "--graph", "frontdoor_observed", "--dist", str(path)]) == 2
    assert message in capsys.readouterr().err
