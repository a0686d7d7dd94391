import numpy as np
import pytest
from hypothesis import given, strategies as st

from causal_imitation import fixtures
from causal_imitation.diagram import CausalDiagram
from causal_imitation.errors import TooLargeError
from causal_imitation.scm import (
    _BLOCK_CELLS,
    DiscreteSCM,
    JointTable,
    Mechanism,
    Policy,
    conditional_policy,
    format_scm,
    intervene,
    joint,
    observational,
    parse_scm_text,
    random_frontdoor,
    random_scm,
    sample,
)

from oracles import do, joint_enumeration, policy_joint_enumeration, random_diagram


def test_intro_highway_expert_reward():
    m = fixtures.scm_fixture("highway_xor")
    assert abs(joint(m).expectation("Y") - 1.0) < 1e-12


def test_parity_trap_expert_reward():
    m = fixtures.scm_fixture("parity_trap")
    assert abs(joint(m).expectation("Y") - 1.0) < 1e-12


def test_mix_fixture_reward_and_action_marginals():
    j = joint(fixtures.scm_fixture("frontdoor_mix"))
    assert abs(j.expectation("Y") - 0.82) < 1e-12
    # P(X=1) = 0.9*0.1 + 0.1*0.9
    assert abs(j.expectation("X") - 0.18) < 1e-12


def test_observational_marginal_consistency():
    m = fixtures.scm_fixture("frontdoor_mix")
    obs = observational(m)
    assert obs.marginal(["X"]).l1(joint(m).marginal(["X"])) < 1e-12


def test_intro_highway_cloning_reward():
    m = fixtures.scm_fixture("highway_xor")
    pol = conditional_policy(observational(m), "X", ["Z"])
    assert abs(joint(intervene(m, pol)).expectation("Y") - 0.5) < 1e-12


def test_parity_trap_grid_of_policies():
    m = fixtures.scm_fixture("parity_trap")
    for alpha in np.linspace(0.0, 1.0, 21):
        pol = Policy.create("X", 2, np.array([1.0 - alpha, alpha]))
        assert abs(joint(intervene(m, pol)).expectation("Y") - 0.5) < 1e-12


def test_atomic_on_constant_mechanism_is_noop():
    m = fixtures.scm_fixture("frontdoor_mix")
    once = do(m, "X", 1)
    twice = do(once, "X", 1)
    assert joint(once).l1(joint(twice)) == 0.0


def test_policy_joint_matches_direct_enumeration():
    # two independent code paths for the intervened joint, on every fixture
    rng = np.random.default_rng(5)
    for name in fixtures.scm_names():
        m = fixtures.scm_fixture(name)
        pol = Policy.create("X", 2, rng.dirichlet([1, 1]))
        got = joint(intervene(m, pol))
        want = policy_joint_enumeration(m, pol)
        assert got.l1(want) < 1e-12, name


def test_joint_bit_identical_to_enumeration():
    # the vectorized joint performs each cell's operations in the order of
    # the per-configuration loop, so equality is exact, not within a tolerance
    models = [fixtures.scm_fixture(name) for name in fixtures.scm_names()]
    models += [random_frontdoor(seed) for seed in range(200)]
    rng = np.random.default_rng(11)
    for trial in range(40):
        d = random_diagram(rng, int(rng.integers(3, 9)), latent_fraction=0.3)
        models += [random_scm(d, seed=trial, domains=k) for k in (2, 3)]
    # zero-weight exogenous configurations in the middle of the enumeration
    d = CausalDiagram.create(observed="AB", directed=[("A", "B")], bidirected=[("A", "B")])
    models.append(DiscreteSCM.create(
        d, {"A": 2, "B": 3}, {"U": [0.25, 0.0, 0.75], "V": [0.0, 1.0]},
        [Mechanism("A", (), ("U", "V"), rng.dirichlet([1, 1], size=(3, 2))),
         Mechanism("B", ("A",), ("U",), rng.dirichlet([1, 1, 1], size=(2, 3)))],
    ))
    # no endogenous node: the joint is a single cell summing 16 weights
    models.append(DiscreteSCM.create(
        CausalDiagram.create(observed=[]), {},
        {f"U{i}": [p, 1.0 - p] for i, p in enumerate((0.1, 0.37, 0.5, 0.83))}, [],
    ))
    # 2**10 endogenous x 2**9 exogenous cells: more than one block
    names = [f"N{i}" for i in range(10)]
    chain = list(zip(names, names[1:]))
    d = CausalDiagram.create(observed=names, directed=chain, bidirected=chain)
    assert 2**10 * 2**9 > _BLOCK_CELLS
    models.append(random_scm(d, seed=3))
    for i, m in enumerate(models):
        assert np.array_equal(joint(m).probs, joint_enumeration(m).probs), i


def test_d_separation_implies_independence_in_fixture_models():
    # graph-level separation is sound for the exact joints of the fixtures
    from causal_imitation.diagram import d_separated
    from oracles import conditionally_independent, subsets

    for name in fixtures.scm_names():
        m = fixtures.scm_fixture(name)
        table = joint(m)
        nodes = sorted(m.diagram.nodes)
        for a in nodes:
            for b in nodes:
                if b <= a:
                    continue
                for c in subsets(set(nodes) - {a, b}):
                    if d_separated(m.diagram, {a}, {b}, set(c)):
                        assert conditionally_independent(table, {a}, {b}, set(c)), \
                            (name, a, b, c)


def test_sample_deterministic_and_shape():
    m = fixtures.scm_fixture("frontdoor_mix")
    a = sample(m, 100, seed=3)
    b = sample(m, 100, seed=3)
    assert a.variables == b.variables == ("W", "X", "Y")
    assert np.array_equal(a.rows, b.rows)
    one = sample(m, 1, seed=0)
    assert one.rows.shape == (1, 3)


def test_sample_concentrates():
    m = fixtures.scm_fixture("frontdoor_mix")
    ds = sample(m, 100_000, seed=11)
    counts = np.bincount(np.ravel_multi_index(ds.rows.T, (2, 2, 2)), minlength=8)
    emp = JointTable(ds.variables, (2, 2, 2), counts.reshape(2, 2, 2) / len(ds.rows))
    assert emp.l1(observational(m)) < 0.01


def test_sample_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        sample(fixtures.scm_fixture("frontdoor_mix"), 0)


def test_random_frontdoor_diagram_and_determinism():
    m = random_frontdoor(0)
    assert m.diagram == fixtures.diagram_fixture("frontdoor_latent").diagram
    assert format_scm(m, "g.graph") == format_scm(random_frontdoor(0), "g.graph")
    seen = set()
    for seed in range(100):
        obs = observational(random_frontdoor(seed))
        seen.add(tuple(np.round(obs.probs.reshape(-1), 12)))
    assert len(seen) == 100


def test_random_frontdoor_reproduces_factored_conditionals():
    # the generator's drawn conditionals are recoverable from the joint
    seed = 42
    m = random_frontdoor(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p_x = float(rng.uniform())
    p_w = rng.uniform(size=2)
    p_s = rng.uniform(size=(2, 2))
    p_y = rng.uniform(size=2)
    j = joint(m)
    assert abs(j.expectation("X") - p_x) < 1e-12
    px = j.marginal(["X"]).probs
    wx = j.marginal(["W", "X"]).probs
    for x in (0, 1):
        got = wx[1, x] / px[x]
        assert abs(got - p_w[x]) < 1e-12
    swx = j.marginal(["S", "W", "X"]).probs
    for x in (0, 1):
        for w in (0, 1):
            got = swx[1, w, x] / wx[w, x]
            assert abs(got - p_s[x, w]) < 1e-9
    sy = j.marginal(["S", "Y"]).probs
    for s in (0, 1):
        got = sy[s, 1] / sy[s].sum()
        assert abs(got - p_y[s]) < 1e-12


def test_random_scm_respects_diagram():
    case = fixtures.diagram_fixture("highway_sideinfo")
    m = random_scm(case.diagram, seed=9)
    assert m.diagram == case.diagram
    assert abs(float(joint(m).probs.sum()) - 1.0) < 1e-9


def test_joint_size_cap():
    d = CausalDiagram.create(observed=[f"N{i}" for i in range(9)])
    m = random_scm(d, seed=0, domains=8)
    with pytest.raises(TooLargeError):
        joint(m)


def test_joint_table_rejects_nan_mass():
    with pytest.raises(ValueError, match="table mass nan is not 1"):
        JointTable(("A",), (2,), np.array([0.5, np.nan]))


def test_undeclared_confounder_rejected():
    d = CausalDiagram.create(observed="AB")  # no bidirected edge declared
    mechs = [
        Mechanism("A", (), ("U",), np.array([[1.0, 0.0], [0.0, 1.0]])),
        Mechanism("B", (), ("U",), np.array([[1.0, 0.0], [0.0, 1.0]])),
    ]
    with pytest.raises(ValueError, match="bidirected"):
        DiscreteSCM.create(d, {"A": 2, "B": 2}, {"U": [0.5, 0.5]}, mechs)


def test_mechanism_parent_mismatch_rejected():
    d = CausalDiagram.create(observed="AB", directed=[("A", "B")])
    mechs = [
        Mechanism("A", (), (), np.array([0.5, 0.5])),
        Mechanism("B", (), (), np.array([0.5, 0.5])),  # should condition on A
    ]
    with pytest.raises(ValueError, match="parents"):
        DiscreteSCM.create(d, {"A": 2, "B": 2}, {}, mechs)


def test_duplicate_mechanism_rejected():
    d = CausalDiagram.create(observed="AB", directed=[("A", "B")])
    mechs = [
        Mechanism("A", (), (), np.array([0.5, 0.5])),
        Mechanism("B", ("A",), (), np.array([[0.5, 0.5], [0.5, 0.5]])),
        Mechanism("B", ("A",), (), np.array([[1.0, 0.0], [0.0, 1.0]])),
    ]
    with pytest.raises(ValueError, match="duplicate mechanism for B"):
        DiscreteSCM.create(d, {"A": 2, "B": 2}, {}, mechs)


def test_domain_outside_the_diagram_rejected():
    d = CausalDiagram.create(observed="AB", directed=[("A", "B")])
    mechs = [
        Mechanism("A", (), (), np.array([0.5, 0.5])),
        Mechanism("B", ("A",), (), np.array([[0.5, 0.5], [0.5, 0.5]])),
    ]
    DiscreteSCM.create(d, {"A": 2, "B": 2}, {}, mechs)
    with pytest.raises(ValueError, match="domain for Q, which is not in the diagram"):
        DiscreteSCM.create(d, {"A": 2, "B": 2, "Q": 2}, {}, mechs)


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy.create("X", 2, np.array([0.7, 0.7]))
    pol = Policy.create("X", 3, np.full(3, 1 / 3))
    assert pol.probs.shape == (3,)
    pm = Policy.create("X", 2, np.array([0.0, 1.0]))
    assert pm.probs[1] == 1.0


@pytest.mark.parametrize("input_domains", [(), (2, 3)])
def test_policy_create_needs_one_domain_per_input(input_domains):
    # a shorter tuple raised IndexError, and a longer one was cut to fit
    with pytest.raises(ValueError, match="1 inputs but"):
        Policy.create("X", 2, np.full((2, 2), 0.5), inputs=("Z",), input_domains=input_domains)


def test_scm_text_roundtrip():
    for name in fixtures.scm_names():
        m = fixtures.scm_fixture(name)
        text = format_scm(m, "g.graph")
        again = parse_scm_text(text, m.diagram)
        assert again.diagram == m.diagram, name
        assert format_scm(again, "g.graph") == text, name


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 7), k=st.integers(2, 3))
def test_scm_text_roundtrip_random_models(seed, n_nodes, k):
    d = random_diagram(np.random.default_rng(seed), n_nodes, latent_fraction=0.3)
    m = random_scm(d, seed=seed, domains=k)
    text = format_scm(m, "g.graph")
    again = parse_scm_text(text, d)
    assert again.diagram == m.diagram
    assert format_scm(again, "g.graph") == text


def test_intervene_rejects_bad_domain():
    m = fixtures.scm_fixture("frontdoor_mix")
    with pytest.raises(ValueError):
        intervene(m, Policy.create("X", 3, np.full(3, 1 / 3)))
