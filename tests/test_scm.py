import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        pol = Policy.create("X", np.array([1.0 - alpha, alpha]))
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
        pol = Policy.create("X", rng.dirichlet([1, 1]))
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
        d, {"U": [0.25, 0.0, 0.75], "V": [0.0, 1.0]},
        [Mechanism("A", (), ("U", "V"), rng.dirichlet([1, 1], size=(3, 2))),
         Mechanism("B", ("A",), ("U",), rng.dirichlet([1, 1, 1], size=(2, 3)))],
    ))
    # no endogenous node: the joint is a single cell summing 16 weights
    models.append(DiscreteSCM.create(
        CausalDiagram.create(observed=[]),
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
    emp = JointTable(ds.variables, counts.reshape(2, 2, 2) / len(ds.rows))
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


def test_random_frontdoor_batch_draws_each_model_alone():
    # a list of seeds is the batch of their models, each bit for bit the
    # model its seed draws alone, whose conditionals are the four draws
    # made one after another
    seeds = [0, 7, np.random.SeedSequence(entropy=3, spawn_key=(5,))]
    batch = random_frontdoor(seeds)
    assert batch.batch == (3,) and batch.diagram == random_frontdoor(0).diagram
    for i, seed in enumerate(seeds):
        alone = random_frontdoor(seed)
        rng = np.random.default_rng(seed)
        p_x, p_w, p_s, p_y = rng.uniform(), rng.uniform(size=2), rng.uniform(size=(2, 2)), rng.uniform(size=2)
        assert alone.batch == ()
        assert dict(alone.exogenous)["U"].tobytes() == np.array([1 - p_x, p_x]).tobytes()
        tables = {m.node: m.table for m in alone.mechanisms}
        assert tables["W"][:, 1].tobytes() == p_w.tobytes()
        assert tables["S"][:, :, 1].tobytes() == p_s.T.copy().tobytes()
        assert tables["Y"][:, 1].tobytes() == p_y.tobytes()
        assert dict(batch.exogenous)["U"][i].tobytes() == dict(alone.exogenous)["U"].tobytes()
        for got, want in zip(batch.mechanisms, alone.mechanisms, strict=True):
            row = np.broadcast_to(got.table, batch.batch + want.table.shape)[i]  # X's table is shared
            assert got.node == want.node and row.tobytes() == want.table.tobytes()


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
        JointTable(("A",), np.array([0.5, np.nan]))


def test_undeclared_confounder_rejected():
    d = CausalDiagram.create(observed="AB")  # no bidirected edge declared
    mechs = [
        Mechanism("A", (), ("U",), np.array([[1.0, 0.0], [0.0, 1.0]])),
        Mechanism("B", (), ("U",), np.array([[1.0, 0.0], [0.0, 1.0]])),
    ]
    with pytest.raises(ValueError, match="bidirected"):
        DiscreteSCM.create(d, {"U": [0.5, 0.5]}, mechs)


def test_mechanism_parent_mismatch_rejected():
    d = CausalDiagram.create(observed="AB", directed=[("A", "B")])
    mechs = [
        Mechanism("A", (), (), np.array([0.5, 0.5])),
        Mechanism("B", (), (), np.array([0.5, 0.5])),  # should condition on A
    ]
    with pytest.raises(ValueError, match="parents"):
        DiscreteSCM.create(d, {}, mechs)


def test_duplicate_mechanism_rejected():
    d = CausalDiagram.create(observed="AB", directed=[("A", "B")])
    mechs = [
        Mechanism("A", (), (), np.array([0.5, 0.5])),
        Mechanism("B", ("A",), (), np.array([[0.5, 0.5], [0.5, 0.5]])),
        Mechanism("B", ("A",), (), np.array([[1.0, 0.0], [0.0, 1.0]])),
    ]
    with pytest.raises(ValueError, match=r"mechanisms for \['A', 'B', 'B'\] are not one per diagram node"):
        DiscreteSCM.create(d, {}, mechs)


def test_domain_outside_the_diagram_rejected():
    d = CausalDiagram.create(observed="AB", directed=[("A", "B")])
    mechs = (
        Mechanism("A", (), (), np.array([0.5, 0.5])),
        Mechanism("B", ("A",), (), np.array([[0.5, 0.5], [0.5, 0.5]])),
    )
    assert DiscreteSCM.create(d, {}, mechs).domains == (("A", 2), ("B", 2))
    # a domain is a mechanism's last axis: one outside the diagram comes
    # with a mechanism outside it
    with pytest.raises(ValueError, match=r"mechanisms for \['A', 'B', 'Q'\] are not one per diagram node"):
        DiscreteSCM.create(d, {}, mechs + (Mechanism("Q", (), (), np.array([0.5, 0.5])),))


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy.create("X", np.array([0.7, 0.7]))
    pol = Policy.create("X", np.full(3, 1 / 3))
    assert pol.probs.shape == (3,) and (pol.action_domain, pol.input_domains) == (3, ())
    pm = Policy.create("X", np.array([0.0, 1.0]))
    assert pm.probs[1] == 1.0


def test_policy_create_with_too_few_axes_reaches_the_constructor():
    # create moved the input axes first, and numpy refused the move
    with pytest.raises(ValueError, match="policy table for X has too few axes"):
        Policy.create("X", np.full(2, 0.5), ("Z",))
    with pytest.raises(ValueError, match="policy table for X has too few axes"):
        Policy.create("X", np.full((2, 2), 0.5), ("Z", "W"))


def test_expectation_of_a_batch_is_one_per_table():
    # a batched table's expectation raised TypeError; it now reads as l1
    # does, with each entry the bits of its table alone
    rng = np.random.default_rng(0)
    raw = rng.uniform(size=(6, 3, 2))
    probs = raw / raw.sum(axis=(1, 2), keepdims=True)
    batch = JointTable(("A", "B"), probs)
    for var in ("A", "B"):
        means = batch.expectation(var)
        assert isinstance(means, np.ndarray) and means.shape == (6,)
        alone = [JointTable(("A", "B"), p).expectation(var) for p in probs]
        assert all(isinstance(m, float) for m in alone)
        assert means.tolist() == alone


def test_joint_table_refuses_unknown_and_mismatched_variables():
    table = observational(fixtures.scm_fixture("frontdoor_mix"))
    with pytest.raises(ValueError, match=r"unknown variables \['Q'\]"):
        table.marginal(["Q", "X"])
    with pytest.raises(ValueError, match="tables are over different variables"):
        table.l1(table.marginal(["X"]))
    # the same names over other domain sizes are other variables too
    shape = (2,) * (len(table.variables) - 1) + (3,)
    other = JointTable(table.variables, np.full(shape, 1.0 / np.prod(shape)))
    with pytest.raises(ValueError, match="tables are over different variables"):
        table.l1(other)


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
    # the intervened model's constructor reports a policy domain that does
    # not match the model as a mechanism's shape: a wrong action size at the
    # action's child, which reads the action's size off the policy, and a
    # wrong input size at the action's own table
    m = fixtures.scm_fixture("frontdoor_mix")
    with pytest.raises(ValueError, match=r"mechanism table for W has shape \(2, 2, 2\), expected \(3, 2, 2\)"):
        intervene(m, Policy.create("X", np.full(3, 1 / 3)))
    m = fixtures.scm_fixture("highway_xor")
    with pytest.raises(ValueError, match=r"mechanism table for X has shape \(3, 2\), expected \(2, 2\)"):
        intervene(m, Policy.create("X", np.full((3, 2), 0.5), inputs=("Z",)))


@pytest.mark.parametrize("build, message", [
    # a table has one domain per trailing axis: too few axes, too few domains
    pytest.param(lambda: JointTable(("X", "Y"), np.full(2, 0.5)), "has 1 axes for 2 variables",
                 id="joint-table-domain-count"),
    pytest.param(lambda: JointTable(("X", "X"), np.full((2, 2), 0.25)), "sorted and distinct",
                 id="joint-table-repeated-variable"),
    pytest.param(lambda: Policy("X", ("Z", "Z"), np.full((2, 2, 2), 0.5)), "sorted and distinct",
                 id="policy-repeated-input"),
    pytest.param(lambda: Policy("X", ("X",), np.full((2, 2), 0.5)), "cannot be its own input",
                 id="policy-action-among-inputs"),
    pytest.param(lambda: Policy("X", ("W", "Z"), np.full((2, 2), 0.5)), "policy table for X has too few axes",
                 id="policy-input-domain-count"),
    pytest.param(lambda: Mechanism("X", ("A", "A"), (), np.full((2, 2, 2), 0.5)), "sorted and distinct",
                 id="mechanism-repeated-parent"),
    pytest.param(lambda: Mechanism("X", (), ("U", "U"), np.full((2, 2, 2), 0.5)), "sorted and distinct",
                 id="mechanism-repeated-exo"),
    pytest.param(lambda: Mechanism("X", ("A", "B"), (), np.full(2, 0.5)), "too few axes",
                 id="mechanism-too-few-axes"),
    # a node's domain is its mechanism's last axis: a parent without a
    # mechanism has none
    pytest.param(lambda: DiscreteSCM(
        CausalDiagram.create(observed="AB", directed=[("B", "A")]), (),
        (Mechanism("A", ("B",), (), np.full((2, 2), 0.5)),)),
        "not one per diagram node", id="model-missing-parent-domain"),
    pytest.param(lambda: DiscreteSCM(
        CausalDiagram.create(observed="AB", directed=[("B", "A")]), (),
        (Mechanism("B", (), (), np.full(2, 0.5)), Mechanism("A", ("B",), (), np.full((2, 2), 0.5)))),
        r"mechanisms for \['B', 'A'\] are not one per diagram node in its order \['A', 'B'\]",
        id="model-mechanisms-out-of-order"),
    pytest.param(lambda: DiscreteSCM(
        CausalDiagram.create(observed="A"), (("U", np.full(2, 0.5)), ("U", np.array([0.1, 0.9]))),
        (Mechanism("A", (), ("U",), np.eye(2)),)), "sorted by distinct name", id="model-repeated-exo"),
])
def test_constructor_refuses(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_model_constructor_checks_what_create_checks():
    m = fixtures.scm_fixture("frontdoor_mix")
    with pytest.raises(ValueError, match="not one per diagram node"):
        DiscreteSCM(m.diagram, m.exogenous, m.mechanisms[:-1])


# Each type, built from drawn arguments with at most one fault: the valid
# arguments must be accepted and every fault refused with a ValueError, and
# a factory must agree with the constructor that gets what it would pass.

NAMES = "ABCDEFG"


def _outcome(build) -> str:
    try:
        build()
    except ValueError:
        return "ValueError"
    return "ok"


def _table(rng, shape, axes=1):
    """Random table whose last ``axes`` axes hold distributions."""
    raw = rng.uniform(size=shape) + 1e-9
    return raw / raw.sum(axis=tuple(range(-axes, 0)), keepdims=True)


def _names(rng, count):
    return tuple(str(v) for v in rng.choice(list(NAMES), count, replace=False))


def _value_fault(fault, table, axes=1):
    """``table`` with the rows (or the whole table, for ``axes`` > 1) of its
    first index broken, or ``table`` itself for any other fault."""
    first = table.reshape(table.shape[:table.ndim - axes] + (-1,)).copy()
    if fault == "rows":
        first[(0,) * (first.ndim - 1)] *= 0.5
    elif fault == "nan":
        first[(0,) * first.ndim] = np.nan
    elif fault == "negative":
        first[(0,) * first.ndim] -= 1.0
        first[(0,) * (first.ndim - 1) + (-1,)] += 1.0
    else:
        return table
    return first.reshape(table.shape)


VALUE_FAULTS = ["rows", "nan", "negative"]


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1),
       fault=st.sampled_from([None, "axes", "unsorted", "repeat", *VALUE_FAULTS]))
def test_joint_table_accepts_exactly_valid_arguments(seed, fault):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    variables = tuple(sorted(_names(rng, n)))
    domains = tuple(int(k) for k in rng.integers(2, 4, n))
    batch = () if fault == "axes" else (2,) * int(rng.integers(0, 2))
    probs = _value_fault(fault, _table(rng, batch + domains, axes=n), axes=n)
    if fault == "axes":
        probs = probs.reshape(-1)  # one axis for n variables
    elif fault == "unsorted":
        variables = variables[::-1]
    elif fault == "repeat":
        variables = (variables[0],) + variables[:-1]
    assert _outcome(lambda: JointTable(variables, probs)) == ("ok" if fault is None else "ValueError")


def _policy_constructor_arguments(action, probs, inputs):
    """The arguments ``Policy.create`` passes to the constructor: inputs in
    sorted order with their table axes (where there is one per input), as
    floats."""
    order = sorted(range(len(inputs)), key=lambda i: inputs[i])
    arr = np.ascontiguousarray(probs, dtype=float)
    if arr.ndim > len(inputs):
        arr = np.moveaxis(arr, [i - len(inputs) - 1 for i in order], range(-len(inputs) - 1, -1))
    return action, tuple(inputs[i] for i in order), arr


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1),
       fault=st.sampled_from([None, "axes", "repeat", "own-input", *VALUE_FAULTS]))
def test_policy_create_and_constructor_agree(seed, fault):
    rng = np.random.default_rng(seed)
    action, *pool = _names(rng, 4)
    inputs = pool[:int(rng.integers(1 if fault == "repeat" else 0, 4))]  # in drawn order: create sorts
    action_domain = int(rng.integers(2, 4))
    input_domains = [int(k) for k in rng.integers(2, 4, len(inputs))]
    if fault == "repeat":
        inputs.append(inputs[0])
        input_domains.append(input_domains[0])
    elif fault == "own-input":
        inputs.append(action)
        input_domains.append(action_domain)
    batch = (2,) * int(rng.integers(0, 2))
    probs = _value_fault(fault, _table(rng, batch + tuple(input_domains) + (action_domain,)))
    if fault == "axes":
        probs = probs[(0,) * (len(batch) + 1)] if inputs else probs[..., None]
    args = (action, probs, tuple(inputs))
    via_create = _outcome(lambda: Policy.create(*args))
    assert via_create == _outcome(lambda: Policy(*_policy_constructor_arguments(*args)))
    assert via_create == ("ok" if fault is None else "ValueError")
    if fault is None:
        policy = Policy.create(*args)
        assert policy.input_domains == tuple(input_domains[inputs.index(z)] for z in policy.inputs)
        assert policy.action_domain == action_domain


# each fault with the fewest parents and exogenous names it needs
MECHANISM_FAULTS = {None: (0, 0), "unsorted-parents": (2, 0), "repeat-parent": (1, 0), "unsorted-exo": (0, 2),
                    "repeat-exo": (0, 1), "axes": (1, 0), "rows": (0, 0), "nan": (0, 0), "negative": (0, 0)}


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), fault=st.sampled_from(list(MECHANISM_FAULTS)))
def test_mechanism_accepts_exactly_valid_arguments(seed, fault):
    rng = np.random.default_rng(seed)
    node, *pool = _names(rng, 4)
    least_parents, least_exo = MECHANISM_FAULTS[fault]
    parents = sorted(pool[:int(rng.integers(least_parents, 4))])
    exo = [f"U{i}" for i in range(int(rng.integers(least_exo, 3)))]
    if fault == "unsorted-parents":
        parents.reverse()
    elif fault == "repeat-parent":
        parents.append(parents[-1])
    elif fault == "unsorted-exo":
        exo.reverse()
    elif fault == "repeat-exo":
        exo.append(exo[-1])
    shape = (2,) * int(rng.integers(0, 2)) + tuple(rng.integers(2, 4, len(parents) + len(exo) + 1))
    table = _value_fault(fault, _table(rng, shape))
    if fault == "axes":
        table = table.reshape(-1, shape[-1])[0]
    outcome = _outcome(lambda: Mechanism(node, tuple(parents), tuple(exo), table))
    assert outcome == ("ok" if fault is None else "ValueError")


# faults that create's arguments cannot hold, since it sorts its mechanisms
# and its mapping: only the constructor gets them
CONSTRUCTOR_FAULTS = ["unsorted-mechanisms", "unsorted-exo", "repeat-exo"]
# faults no diagram can hold: CausalDiagram's constructor refuses them
DIAGRAM_FAULTS = ["cycle", "undeclared-edge-node"]
MODEL_FAULTS = [None, "cycle", "undeclared-edge-node", "mechanism-outside",
                "missing-mechanism", "duplicate-mechanism", "small-domain", "wrong-parents",
                "unknown-exo", "exo-clash", "exo-rows", "exo-nan", "table-shape", "mechanism-rows", "unlicensed",
                "batch", *CONSTRUCTOR_FAULTS]


def _model_arguments(rng, fault):
    """Diagram, exogenous distributions and mechanism specs of a random
    model with ``fault`` in it."""
    d = random_diagram(rng, int(rng.integers(2, 6)), latent_fraction=0.3)
    a, b = d.nodes[:2]
    if fault == "cycle":
        d = CausalDiagram.create(d.observed, d.latent, d.directed | {(a, b), (b, a)}, d.bidirected)
    elif fault == "unlicensed":
        d = CausalDiagram.create(d.observed, d.latent, d.directed, d.bidirected - {(a, b)})
    domains = {v: int(rng.integers(2, 4)) for v in d.nodes}
    exogenous = {}
    attached = {v: [] for v in d.nodes}
    for i, pair in enumerate(sorted(d.bidirected)):
        exogenous[f"U{i}"] = _table(rng, (int(rng.integers(2, 4)),))
        for v in pair:
            attached[v].append(f"U{i}")
    for v in d.nodes:
        if rng.uniform() < 0.3:
            exogenous[f"E{v}"] = _table(rng, (2,))
            attached[v].append(f"E{v}")
    if fault == "unlicensed":
        exogenous["S9"] = _table(rng, (2,))
        attached[a].append("S9")
        attached[b].append("S9")
    elif fault == "table-shape" and not d.parents(a) and not attached[a]:
        # a's table needs an axis before its own to lengthen
        exogenous[f"E{a}"] = _table(rng, (2,))
        attached[a].append(f"E{a}")
    batch = (2,) if fault != "batch" and rng.uniform() < 0.3 else ()
    mechs = {}
    for v in d.nodes:
        parents = sorted(d.parents(v))
        exo = sorted(attached[v])
        if fault == "wrong-parents" and v == b:
            parents = parents[1:] if parents else [a]
        if fault == "unknown-exo" and v == a:
            exo = sorted(exo + ["Z9"])
        # the undeclared exogenous Z9 gets two values
        sizes = [domains[p] for p in parents] + [len(exogenous.get(u, (0, 0))) for u in exo] + [domains[v]]
        mechs[v] = [v, tuple(parents), tuple(exo), _table(rng, batch + tuple(sizes))]
    mechs = list(mechs.values())
    if fault == "undeclared-edge-node":
        d = CausalDiagram(d.nodes, d.observed, d.directed | {(a, "Q")}, d.bidirected)
    elif fault == "mechanism-outside":
        mechs.append(["Q", (), (), _table(rng, (2,))])
    elif fault == "missing-mechanism":
        mechs.pop(int(rng.integers(len(mechs))))
    elif fault == "duplicate-mechanism":
        mechs.append(list(mechs[int(rng.integers(len(mechs)))]))
    elif fault == "small-domain":
        mechs[1][3] = np.ones(mechs[1][3].shape[:-1] + (1,))
    elif fault == "exo-clash":
        exogenous[a] = [0.5, 0.5]
    elif fault == "exo-rows":
        exogenous["V9"] = [0.3, 0.3]
    elif fault == "exo-nan":
        exogenous["V9"] = [np.nan, 1.0]
    elif fault == "table-shape":
        # a's first parent or exogenous axis one entry longer than its domain
        table = mechs[0][3]
        mechs[0][3] = np.concatenate([table, table[(slice(None),) * len(batch) + (slice(0, 1),)]], axis=len(batch))
    elif fault == "mechanism-rows":
        mechs[1][3] = _value_fault("rows", mechs[1][3])
    elif fault == "batch":
        mechs[0][3] = np.stack([mechs[0][3]] * 2)
        mechs[1][3] = np.stack([mechs[1][3]] * 3)
    elif fault in ("unsorted-exo", "repeat-exo"):
        # two unused entries: names to reorder or repeat in every draw
        exogenous["V8"] = exogenous["V9"] = _table(rng, (2,))
    return d, exogenous, mechs


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), fault=st.sampled_from(MODEL_FAULTS))
def test_model_create_and_constructor_agree(seed, fault):
    if fault in DIAGRAM_FAULTS:
        # the diagram's own constructor refuses these before a model exists
        with pytest.raises(ValueError, match="invalid diagram"):
            _model_arguments(np.random.default_rng(seed), fault)
        return
    d, exogenous, mechs = _model_arguments(np.random.default_rng(seed), fault)

    def via_constructor():
        exo = tuple((name, np.ascontiguousarray(p, dtype=float)) for name, p in sorted(exogenous.items()))
        mechanisms = tuple(sorted((Mechanism(*m) for m in mechs), key=lambda m: m.node))
        if fault == "unsorted-mechanisms":
            mechanisms = mechanisms[::-1]
        elif fault == "unsorted-exo":
            exo = exo[::-1]
        elif fault == "repeat-exo":
            exo += exo[-1:]
        return DiscreteSCM(d, exo, mechanisms)

    def via_create():
        return DiscreteSCM.create(d, exogenous, [Mechanism(*m) for m in mechs])

    outcome = _outcome(via_constructor)
    if fault not in CONSTRUCTOR_FAULTS:
        assert _outcome(via_create) == outcome
    assert outcome == ("ok" if fault is None else "ValueError")
    if fault is None:
        assert via_create().domains == via_constructor().domains
