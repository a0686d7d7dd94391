"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import math
import time
import zlib

import numpy as np

from causal_imitation import fixtures
from causal_imitation.criteria import find_pi_backdoor
from causal_imitation.criteria import pi_backdoor_admissible
from causal_imitation.diagram import PolicySpace, augment_policy, d_separated
from causal_imitation.enumerators import list_id_subspaces, list_min_separators
from causal_imitation.identify import identify_atomic, identify_policy
from causal_imitation.imitate import imitate_pipeline, verify_policy
from causal_imitation.scm import (
    Policy,
    conditional_policy,
    empirical_observational,
    evaluate,
    intervene,
    joint,
    observational,
    random_scm,
)

from oracles import (
    brute_id_subspaces,
    brute_min_separators,
    d_separated_paths,
    do,
    subsets,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _report(n, elapsed, detail):
    print(f"acceptance {n}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_intro_highway():
    t0 = time.time()
    scm = fixtures.scm_fixture("highway_xor")
    expert = joint(scm).expectation("Y")
    assert abs(expert - 1.0) <= 1e-9
    policy = conditional_policy(observational(scm), "X", ["Z"])
    cloned = joint(intervene(scm, policy)).expectation("Y")
    assert abs(cloned - 0.5) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, elapsed, f"E[Y]={expert:.1f}, E[Y|do(pi)]={cloned:.1f}")


def test_criterion_2_parity_trap_grid():
    t0 = time.time()
    scm = fixtures.scm_fixture("parity_trap")
    assert abs(joint(scm).expectation("Y") - 1.0) <= 1e-9
    for alpha in np.linspace(0.0, 1.0, 101):
        pol = Policy.create("X", 2, np.array([1.0 - alpha, alpha]))
        assert abs(joint(intervene(scm, pol)).expectation("Y") - 0.5) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, elapsed, "P(Y=1)=1 vs 0.5 under every policy on the 101-point grid")


def test_criterion_3_mix_fixture_p_imitable():
    t0 = time.time()
    case = fixtures.diagram_fixture("frontdoor_observed")
    scm = fixtures.scm_fixture("frontdoor_mix")
    obs = observational(scm)
    formula = identify_atomic(case.diagram, "X", {"Y"})
    do0 = evaluate(formula, obs, fixed={"X": 0}).probs[1]
    py1 = obs.marginal(["Y"]).probs[1]
    assert abs(do0 - 0.82) <= 1e-9
    assert abs(py1 - 0.82) <= 1e-9
    result = imitate_pipeline(case.diagram, case.space, obs, "Y")
    assert result.status == "p-imitable"
    residual = verify_policy(scm, result.policy, {"Y"})
    assert residual <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(3, elapsed, f"P(Y=1|do(X=0))={do0:.2f}=P(Y=1), verify residual {residual:.2e}")


def test_criterion_4_backdoor_verdicts():
    t0 = time.time()
    opaque = fixtures.diagram_fixture("highway_opaque")
    assert find_pi_backdoor(opaque.diagram, opaque.space, "Y") is None
    adjustable = fixtures.diagram_fixture("highway_adjustable")
    assert find_pi_backdoor(adjustable.diagram, adjustable.space, "Y") == {"Z"}
    side = fixtures.diagram_fixture("highway_sideinfo")
    assert find_pi_backdoor(side.diagram, side.space, "Y") == {"Z"}
    assert pi_backdoor_admissible(side.diagram, side.space, "Y", {"Z"})
    assert not pi_backdoor_admissible(side.diagram, side.space, "Y", {"Z", "W"})
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(4, elapsed, "None / {Z} / {Z} admissible with {Z,W} rejected")


def test_criterion_5_highway_binary():
    t0 = time.time()
    scm = fixtures.scm_fixture("highway_golden")
    obs = observational(scm)
    e1 = joint(intervene(scm, conditional_policy(obs, "X", ()))).expectation("Y")
    e2 = joint(intervene(scm, conditional_policy(obs, "X", ("W",)))).expectation("Y")
    e1_expected = 2.0 * math.sqrt(5.0) - 4.0
    e2_expected = 4.0 * (4.0 * math.sqrt(5.0) - 9.0) / (math.sqrt(5.0) - 3.0)
    assert abs(e1 - e1_expected) <= 1e-9
    assert abs(e2 - e2_expected) <= 1e-6
    assert round(e2, 4) == 0.2918
    bias = e1 - e2
    assert abs(bias - (e1_expected - e2_expected)) <= 1e-6
    assert round(bias, 2) == 0.18
    # sampled variant: the empirical cloning tables at n = 10^4
    emp = empirical_observational(scm, 10_000, 0)
    s1 = joint(intervene(scm, conditional_policy(emp, "X", ()))).expectation("Y")
    s2 = joint(intervene(scm, conditional_policy(emp, "X", ("W",)))).expectation("Y")
    assert abs((s1 - s2) - 0.1793) <= 0.02
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(5, elapsed,
            f"rewards {e1:.4f}/{e2:.4f}, bias {bias:.4f}, sampled bias {s1 - s2:.4f}")


def test_criterion_6_frontdoor_study():
    from causal_imitation.experiments import frontdoor_study

    t0 = time.time()
    exact = frontdoor_study(10_000, samples=0, seed=0)
    stats = {
        line.split()[1]: float(line.split()[2])
        for line in exact.splitlines()
        if line.startswith("# ") and len(line.split()) == 3
    }
    assert abs(stats["fraction_p_imitable"] - 0.50) <= 0.02
    assert stats["mean_l1_ci"] <= 1e-9
    sampled = frontdoor_study(1_000, samples=100_000, seed=1)
    sstats = {
        line.split()[1]: float(line.split()[2])
        for line in sampled.splitlines()
        if line.startswith("# ") and len(line.split()) == 3
    }
    assert sstats["mean_l1_ci"] <= 0.005
    assert sstats["mean_l1_bc"] >= 0.010
    # consistency with the reported study means, allowing 50% relative slack
    assert sstats["mean_l1_ci"] <= 0.0016 * 1.5
    assert 0.0147 * 0.5 <= sstats["mean_l1_bc"] <= 0.0147 * 1.5
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(6, elapsed,
            f"fraction {stats['fraction_p_imitable']:.3f}, exact ci {stats['mean_l1_ci']:.2e}, "
            f"sampled ci {sstats['mean_l1_ci']:.4f} / bc {sstats['mean_l1_bc']:.4f}")


def test_criterion_7_identification_soundness():
    t0 = time.time()
    names = ("highway_adjustable", "frontdoor_latent", "frontdoor_confounded",
             "chain_latent", "frontdoor_observed", "highway_sideinfo")
    rng = np.random.default_rng(2024)
    checked = 0
    for name in names:
        case = fixtures.diagram_fixture(name)
        g_obs = case.diagram.with_observed({case.reward})
        identified = []
        for sub in subsets(case.space.inputs):
            space = PolicySpace.create(case.space.action, frozenset(sub))
            formula = identify_policy(g_obs, space, {case.reward})
            if formula is not None:
                identified.append((space, formula))
        assert identified, name
        for m in range(100):
            scm = random_scm(g_obs, seed=(zlib.crc32(name.encode()), m))
            obs = observational(scm)
            for space, formula in identified:
                doms = tuple(2 for _ in sorted(space.inputs))
                for _ in range(10):
                    raw = rng.uniform(size=doms + (2,)) + 1e-6
                    pol = Policy.create(case.space.action, 2,
                                        raw / raw.sum(-1, keepdims=True),
                                        tuple(sorted(space.inputs)), doms)
                    got = evaluate(formula, obs, policy=pol)
                    want = joint(intervene(scm, pol)).marginal([case.reward])
                    assert got.l1(want) <= 1e-9, (name, space.inputs, m)
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(7, elapsed, f"{checked} formula evaluations matched the model oracle")


def _corpus():
    for name in fixtures.diagram_names():
        case = fixtures.diagram_fixture(name)
        yield name, case.diagram
        yield name + "+policy", augment_policy(case.diagram, case.space)


def test_criterion_8_enumerator_equivalence():
    t0 = time.time()
    pairs = 0
    for name, diagram in _corpus():
        nodes = sorted(diagram.nodes)
        for a in nodes:
            for b in nodes:
                if b <= a:
                    continue
                restrict = diagram.observed - {a, b}
                got = list(list_min_separators(diagram, a, b, restrict))
                assert len(got) == len(set(got)), (name, a, b)
                assert got == brute_min_separators(diagram, a, b, restrict), (name, a, b)
                pairs += 1
    spaces = 0
    for name in fixtures.diagram_names():
        case = fixtures.diagram_fixture(name)
        g_obs = case.diagram.with_observed({case.reward})
        got = [s.inputs for s in list_id_subspaces(g_obs, case.space, {case.reward})]
        assert len(got) == len(set(got)), name
        assert sorted(got, key=lambda s: tuple(sorted(s))) == \
            brute_id_subspaces(g_obs, case.space, {case.reward}), name
        spaces += len(got)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(8, elapsed, f"{pairs} separator queries and {spaces} subspaces matched brute force")


def test_criterion_9_d_separation_oracle():
    t0 = time.time()
    compared = 0
    for name, diagram in _corpus():
        nodes = sorted(diagram.nodes)
        assert len(nodes) <= 7, name
        for labels in np.ndindex(*(4,) * len(nodes)):
            a = {n for n, l in zip(nodes, labels) if l == 0}
            b = {n for n, l in zip(nodes, labels) if l == 1}
            c = {n for n, l in zip(nodes, labels) if l == 2}
            assert d_separated(diagram, a, b, c) == d_separated_paths(diagram, a, b, c), \
                (name, a, b, c)
            compared += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(9, elapsed, f"{compared} separation queries matched the path oracle")


def test_criterion_10_footnote_variant():
    t0 = time.time()
    case = fixtures.diagram_fixture("frontdoor_observed")
    scm = fixtures.scm_fixture("frontdoor_mix_variant")
    obs = observational(scm)
    # brute-force grid oracle over the one-parameter policy simplex
    grid = np.linspace(0.0, 1.0, 100_001)
    do_tables = [joint(do(scm, "X", x)).marginal(["Y"]).probs for x in (0, 1)]
    target = obs.marginal(["Y"]).probs
    mixes = np.outer(1.0 - grid, do_tables[0]) + np.outer(grid, do_tables[1])
    residuals = np.abs(mixes - target).sum(axis=1)
    feasible = grid[residuals <= 1e-9]
    assert feasible.size == 1 and feasible[0] == 0.0  # the unique solution: do(X=0)
    result = imitate_pipeline(case.diagram, case.space, obs, "Y")
    assert result.status == "p-imitable"
    recorded = float(result.policy.probs[0])  # pi(X=0)
    oracle = 1.0 - feasible[0]
    assert abs(recorded - oracle) <= 1e-6
    assert verify_policy(scm, result.policy, {"Y"}) <= 1e-6
    claimed = 0.75
    assert abs(recorded - claimed) > 0.1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(10, elapsed,
            f"oracle pi(X=0)={oracle:.1f}; recorded {recorded:.6f} "
            f"FLAG: diverges from the claimed {claimed}")
