from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from causal_imitation import fixtures, identify
from causal_imitation.diagram import CausalDiagram, PolicySpace
from causal_imitation.errors import UnsupportedConditionalError
from causal_imitation.identify import (
    Factor,
    c_components,
    format_formula,
    free_variables,
    has_policy_factor,
    identify_atomic,
    identify_policy,
)
from causal_imitation.projection import project
from causal_imitation.scm import (
    DiscreteSCM,
    Mechanism,
    Policy,
    evaluate,
    intervene,
    joint,
    observational,
    random_scm,
)

from oracles import brute_c_components, do, policy_joint_enumeration, random_diagram


def _det(parent_doms, fn):
    t = np.zeros(parent_doms + (2,))
    for cfg in np.ndindex(*parent_doms):
        t[cfg + (fn(*cfg),)] = 1.0
    return t


# ------------------------------------------------------------- c-components

def test_c_components_confounded_chain():
    d = fixtures.diagram_fixture("backdoor_observed").diagram
    assert c_components(d) == (frozenset({"X"}), frozenset({"Y", "Z"}))


def test_c_components_all_singletons():
    d = CausalDiagram.create(observed="ABC", directed=[("A", "B"), ("B", "C")])
    assert c_components(d) == (frozenset("A"), frozenset("B"), frozenset("C"))


def test_c_components_of_projected_mediator_graph():
    d = project(fixtures.diagram_fixture("frontdoor_observed").diagram)
    assert c_components(d) == (frozenset({"W"}), frozenset({"X", "Y"}))


def test_c_components_reject_latent():
    with pytest.raises(ValueError):
        c_components(fixtures.diagram_fixture("frontdoor_latent").diagram)


@given(st.integers(0, 2000), st.integers(1, 8))
def test_c_components_match_pairwise_merging(seed, n):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, n, latent_fraction=0.3)
    for g in (d.with_observed(d.latent), project(d)):
        assert c_components(g) == brute_c_components(g)


# ------------------------------------------------------------- atomic identification

def test_mediator_formula_shape_and_value():
    d = fixtures.diagram_fixture("frontdoor_observed").diagram
    formula = identify_atomic(d, "X", {"Y"})
    assert format_formula(formula) == "sum_{W} (P(W|X) * sum_{X'} (P(X') * P(Y|W,X')))"
    obs = observational(fixtures.scm_fixture("frontdoor_mix"))
    table = evaluate(formula, obs, fixed={"X": 0})
    assert abs(table.probs[1] - 0.82) < 1e-9
    assert abs(table.probs[1] - joint(fixtures.scm_fixture("frontdoor_mix")).expectation("Y")) < 1e-9


def test_markovian_backdoor_identifiable():
    d = CausalDiagram.create(observed="XYZ", directed=[("Z", "X"), ("X", "Y"), ("Z", "Y")])
    formula = identify_atomic(d, "X", {"Y"})
    assert formula is not None
    assert format_formula(formula) == "sum_{Z} (P(Y|X,Z) * P(Z))"


def test_confounded_covariate_adjustment():
    d = fixtures.diagram_fixture("backdoor_observed").diagram
    formula = identify_atomic(d, "X", {"Y"})
    assert format_formula(formula) == "sum_{Z} (P(Z) * P(Y|X,Z))"


def test_bow_not_identifiable():
    bow = CausalDiagram.create(observed="SX", directed=[("X", "S")], bidirected=[("X", "S")])
    assert identify_atomic(bow, "X", {"S"}) is None


def test_bow_two_model_witness():
    # grid search over deterministic binary models: two models agree on the
    # observational joint yet disagree on P(s | do(x)), certifying the bow
    # pattern is unidentifiable
    bow = CausalDiagram.create(observed="SX", directed=[("X", "S")], bidirected=[("X", "S")])

    def model(fx, gs):
        mechs = [
            Mechanism("S", ("X",), ("U",), _det((2, 2), lambda x, u: gs[2 * x + u])),
            Mechanism("X", (), ("U",), _det((2,), lambda u: fx[u])),
        ]
        return DiscreteSCM.create(bow, {"U": [0.5, 0.5]}, mechs)

    entries = []
    for fx in product((0, 1), repeat=2):
        for gs in product((0, 1), repeat=4):
            m = model(fx, gs)
            obs = observational(m).probs.reshape(-1)
            effects = [joint(do(m, "X", x)).marginal(["S"]).probs[1] for x in (0, 1)]
            entries.append((obs, effects))
    witnesses = [
        (a, b)
        for i, a in enumerate(entries)
        for b in entries[i + 1:]
        if np.allclose(a[0], b[0], atol=1e-12)
        and max(abs(a[1][0] - b[1][0]), abs(a[1][1] - b[1][1])) > 0.25
    ]
    assert witnesses
    # the classic pair: X copies the confounder; S is the parity vs. constant 0
    m1 = model((0, 1), (0, 1, 1, 0))
    m2 = model((0, 1), (0, 0, 0, 0))
    assert observational(m1).l1(observational(m2)) < 1e-12
    e1 = joint(do(m1, "X", 0)).marginal(["S"]).probs[1]
    e2 = joint(do(m2, "X", 0)).marginal(["S"]).probs[1]
    assert abs(e1 - e2) == 0.5


def test_atomic_latent_outcome_not_identifiable():
    case = fixtures.diagram_fixture("frontdoor_latent")
    assert identify_atomic(case.diagram, "X", {"Y"}) is None  # Y is latent


def test_identification_refuses_the_action_in_the_outcome_or_a_latent_action():
    d = fixtures.diagram_fixture("frontdoor_observed").diagram
    with pytest.raises(ValueError, match="outcome must not contain the action"):
        identify_atomic(d, "X", {"X", "Y"})
    with pytest.raises(ValueError, match="outcome must not contain the action"):
        identify_policy(d, PolicySpace.create("X", ()), {"X", "Y"})
    latent = fixtures.diagram_fixture("highway_opaque").diagram  # L is latent
    with pytest.raises(ValueError, match="action 'L' must be an observed node"):
        identify_atomic(latent, "L", {"Z"})


# ------------------------------------------------------------- policy identification

def test_confounded_covariate_space_unidentifiable():
    case = fixtures.diagram_fixture("frontdoor_confounded")
    assert identify_policy(case.diagram, case.space, {"S"}) is None


def test_marginal_subspace_identifiable_mediator():
    case = fixtures.diagram_fixture("frontdoor_confounded")
    sub = PolicySpace.create("X", ())
    formula = identify_policy(case.diagram, sub, {"S"})
    assert formula is not None and has_policy_factor(formula)
    assert free_variables(formula) == {"S"}


def test_policy_free_when_action_cannot_reach_outcome():
    d = CausalDiagram.create(observed="SWX", directed=[("W", "S")])
    formula = identify_policy(d, PolicySpace.create("X", ()), {"S"})
    assert formula == Factor(("S",))
    assert not has_policy_factor(formula)


def test_latent_outcome_policy_not_identifiable():
    case = fixtures.diagram_fixture("frontdoor_latent")
    assert identify_policy(case.diagram, case.space, {"Y"}) is None


def test_policy_query_projects_once(monkeypatch):
    # the atomic core works on the projection it is handed: a policy query
    # projects the diagram once
    calls = []
    monkeypatch.setattr(identify, "project", lambda d: calls.append(d) or project(d))
    atomic = 0
    for name in fixtures.diagram_names():
        case = fixtures.diagram_fixture(name)
        calls.clear()
        formula = identify_policy(case.diagram, case.space, case.diagram.observed - {case.space.action})
        assert len(calls) == 1, name
        atomic += formula is None or has_policy_factor(formula)
    assert atomic >= 5


# ------------------------------------------------------------- evaluation

def test_evaluate_plain_marginal():
    obs = observational(fixtures.scm_fixture("frontdoor_mix"))
    table = evaluate(Factor(("Y",)), obs)
    assert table.l1(obs.marginal(["Y"])) < 1e-12


def test_evaluate_policy_assembly_matches_model():
    # placeholder assembly against the mutilated-model oracle
    case = fixtures.diagram_fixture("frontdoor_confounded")
    sub = PolicySpace.create("X", ())
    formula = identify_policy(case.diagram, sub, {"S"})
    for seed in range(8):
        scm = random_scm(case.diagram.with_observed({"Y"}), seed=seed)
        obs = joint(scm).marginal(case.diagram.observed)
        pol = Policy.create("X", np.full(2, 0.5))
        got = evaluate(formula, obs, policy=pol)
        want = joint(intervene(scm, pol)).marginal(["S"])
        assert got.l1(want) < 1e-9


def test_evaluate_zero_probability_conditional_errors():
    # the parity model makes P(W|X) deterministic, so the mediator formula
    # conditions on an impossible (w, x') event
    d = fixtures.diagram_fixture("frontdoor_observed").diagram
    formula = identify_atomic(d, "X", {"Y"})
    obs = observational(fixtures.scm_fixture("parity_trap"))
    with pytest.raises(UnsupportedConditionalError, match="P"):
        evaluate(formula, obs, fixed={"X": 0})


@pytest.mark.parametrize("fixed", [{"X": -1}, {"X": 1.5}, {"X": 2}, {"W": 2}])
def test_evaluate_pins_only_values_in_the_domain(fixed):
    # np.take wrapped -1 to the X = 1 table, truncated 1.5 to it and raised
    # IndexError on 2; a value of a variable the formula does not mention
    # is checked too
    model = fixtures.scm_fixture("frontdoor_mix")
    formula = identify_atomic(model.diagram, "X", {"Y"})
    [(name, value)] = fixed.items()
    with pytest.raises(ValueError, match=rf"fixed value {value} of '{name}' is not in range\(2\)"):
        evaluate(formula, observational(model), fixed=fixed)


def test_evaluate_argument_validation():
    d = fixtures.diagram_fixture("frontdoor_observed").diagram
    formula = identify_atomic(d, "X", {"Y"})
    obs = observational(fixtures.scm_fixture("frontdoor_mix"))
    with pytest.raises(ValueError, match="mass"):
        evaluate(formula, obs)  # the do-variable is left free
    with pytest.raises(ValueError, match="policy"):
        evaluate(formula, obs, policy=Policy.create("X", np.full(2, 0.5)), fixed={"X": 0})
    case = fixtures.diagram_fixture("frontdoor_confounded")
    pf = identify_policy(case.diagram, PolicySpace.create("X", ()), {"S"})
    with pytest.raises(ValueError, match="policy"):
        evaluate(pf, obs)


def test_evaluate_refuses_sizes_and_names_the_table_does_not_have():
    case = fixtures.diagram_fixture("backdoor_observed")
    formula = identify_policy(case.diagram, case.space, {"Y"})
    obs = observational(random_scm(case.diagram, seed=0))
    assert obs.domains == (2, 2, 2)
    with pytest.raises(ValueError, match="policy input domain for Z does not match the table"):
        evaluate(formula, obs, Policy.create("X", np.full((3, 2), 0.5), ("Z",)))
    with pytest.raises(ValueError, match="policy action domain does not match the table"):
        evaluate(formula, obs, Policy.create("X", np.full((2, 3), 1 / 3), ("Z",)))
    policy = Policy.create("X", np.full((2, 2), 0.5), ("Z",))
    with pytest.raises(ValueError, match="fixed variable 'Q' is unknown"):
        evaluate(formula, obs, policy, fixed={"Q": 0})
    with pytest.raises(ValueError, match=r"fixed value 2 of 'Y' is not in range\(2\)"):
        evaluate(formula, obs, policy, fixed={"Y": 2})


def test_formula_evaluation_cap(monkeypatch):
    # the cap counts one table's cells of each product, the policy cells'
    # axis of the linear system included; unpatched it is 10**7 cells
    from causal_imitation import scm
    from causal_imitation.errors import TooLargeError
    from causal_imitation.imitate import solve_policy

    case = fixtures.diagram_fixture("backdoor_observed")
    formula = identify_policy(case.diagram, case.space, {"Y"})
    obs = observational(random_scm(case.diagram, seed=0, domains=3))
    policy = Policy.create("X", np.full((3, 3), 1 / 3), ("Z",))
    caps = range(1, 3**3 + 1)
    least = next(cap for cap in caps if _under_cap(monkeypatch, cap, lambda: evaluate(formula, obs, policy)))
    assert least == 3**3  # P(Y|X,Z) * pi(X|Z) spans X, Y and Z
    monkeypatch.setattr(scm, "CONFIG_CAP", least - 1)
    with pytest.raises(TooLargeError, match="formula evaluation exceeds the configuration cap"):
        evaluate(formula, obs, policy)
    # the linear system binds the policy slot to 9 policy cells at once
    monkeypatch.setattr(scm, "CONFIG_CAP", least * 9 - 1)
    with pytest.raises(TooLargeError, match="formula evaluation exceeds the configuration cap"):
        solve_policy(formula, obs)
    monkeypatch.setattr(scm, "CONFIG_CAP", least * 9)
    assert solve_policy(formula, obs)[2]


def _under_cap(monkeypatch, cap, run) -> bool:
    """Whether ``run`` completes with the formula-evaluation cap at ``cap``."""
    from causal_imitation import scm
    from causal_imitation.errors import TooLargeError

    monkeypatch.setattr(scm, "CONFIG_CAP", cap)
    try:
        run()
    except TooLargeError:
        return False
    return True


def test_evaluate_takes_a_batch_of_tables():
    # each row of a batched evaluation is the evaluation of its own table,
    # bit for bit; evaluate used to refuse a batch
    from causal_imitation.experiments import frontdoor_instrument
    from causal_imitation.scm import JointTable, random_frontdoor

    formula, diagram = frontdoor_instrument()
    atomic = identify_atomic(diagram, "X", {"S"})
    seeds = list(range(60))
    batch = observational(random_frontdoor(seeds))
    alone = [observational(random_frontdoor(seed)) for seed in seeds]
    policy = Policy.create("X", np.array([0.3, 0.7]))
    policies = Policy.create("X", np.stack([np.linspace(0.1, 0.9, len(seeds)), np.linspace(0.9, 0.1, len(seeds))],
                                           axis=-1))
    for x in (0, 1):
        got = evaluate(atomic, batch, fixed={"X": x})
        assert got.variables == ("S",) and got.batch == (len(seeds),)
        for table, row in zip(alone, got.probs):
            assert np.array_equal(row, evaluate(atomic, table, fixed={"X": x}).probs)
    got = evaluate(formula, batch, policy)
    each = evaluate(formula, batch, policies)
    for i, table in enumerate(alone):
        assert np.array_equal(got.probs[i], evaluate(formula, table, policy).probs)
        one = Policy.create("X", policies.probs[i])
        assert np.array_equal(each.probs[i], evaluate(formula, table, one).probs)
    # one table with P(X=0) = 0 leaves P(W|X) undefined: the batch raises
    probs = batch.probs.copy()
    probs[7, :, :, 1] += probs[7, :, :, 0]
    probs[7, :, :, 0] = 0.0
    with pytest.raises(UnsupportedConditionalError, match="conditioning event of probability zero"):
        evaluate(formula, JointTable(batch.variables, probs), policy)
    with pytest.raises(UnsupportedConditionalError, match="conditioning event of probability zero"):
        evaluate(atomic, JointTable(batch.variables, probs), fixed={"X": 1})


def test_evaluate_refuses_a_policy_the_placeholder_does_not_take():
    # a policy over another action, or reading an input the placeholder
    # does not read, was evaluated as if it fit: pi(X|W) against pi(X)
    # ended in a table that does not total one, and pi(W) in a wrong one
    case = fixtures.diagram_fixture("frontdoor_observed")
    formula = identify_policy(case.diagram, case.space, {"Y"})
    obs = observational(fixtures.scm_fixture("frontdoor_mix"))
    for policy, name in [(Policy.create("X", np.array([[0.2, 0.8], [0.6, 0.4]]), ("W",)), r"pi\(X\|W\)"),
                         (Policy.create("W", np.full(2, 0.5)), r"pi\(W\)")]:
        with pytest.raises(ValueError, match=rf"policy {name} does not fit the formula's placeholder pi\(X\)"):
            evaluate(formula, obs, policy)
    # a policy over fewer inputs than the placeholder reads is one of its
    # policies, constant in the others
    case = fixtures.diagram_fixture("highway_adjustable")
    g_obs = case.diagram.with_observed({"Y"})
    scm = random_scm(g_obs, seed=0)
    pol = Policy.create("X", np.array([0.3, 0.7]))
    got = evaluate(identify_policy(g_obs, case.space, {"Y"}), observational(scm), pol)
    assert got.l1(joint(intervene(scm, pol)).marginal(["Y"])) < 1e-12


def test_evaluate_refuses_a_sum_over_a_variable_its_body_does_not_mention():
    # the sum used to scale its body by the variable's domain size
    from causal_imitation.identify import Sum

    obs = observational(fixtures.scm_fixture("frontdoor_mix"))
    with pytest.raises(ValueError, match="sum over 'X', which its body does not mention"):
        evaluate(Sum(("X", "Y"), Factor(("Y",))), obs)


def test_formula_is_linear_in_the_policy():
    case = fixtures.diagram_fixture("frontdoor_confounded")
    formula = identify_policy(case.diagram, PolicySpace.create("X", ()), {"S"})
    scm = random_scm(case.diagram.with_observed({"Y"}), seed=3)
    obs = joint(scm).marginal(case.diagram.observed)
    p0 = Policy.create("X", np.array([1.0, 0.0]))
    p1 = Policy.create("X", np.array([0.0, 1.0]))
    lam = 0.3
    mix = Policy.create("X", np.array([1.0 - lam, lam]))
    t0 = evaluate(formula, obs, policy=p0).probs
    t1 = evaluate(formula, obs, policy=p1).probs
    tm = evaluate(formula, obs, policy=mix).probs
    assert np.allclose(tm, (1 - lam) * t0 + lam * t1, atol=1e-12)


def test_widened_do_set_is_averaged_out():
    # identification here must intervene on A as well; the result cannot
    # depend on A's value, so A gets averaged away and the formula's free
    # variables stay at outcome plus action
    d = CausalDiagram.create(
        observed="ABCF", latent="DE",
        directed=[("A", "C"), ("A", "D"), ("A", "E"), ("B", "D"), ("B", "F"),
                  ("C", "B"), ("C", "E"), ("D", "E"), ("F", "E")],
        bidirected=[("B", "D"), ("C", "D"), ("C", "F")],
    )
    formula = identify_atomic(d, "C", {"F"})
    assert formula is not None
    assert free_variables(formula) == {"C", "F"}
    for seed in range(5):
        scm = random_scm(d, seed=seed)
        obs = observational(scm)
        for x in (0, 1):
            got = evaluate(formula, obs, fixed={"C": x})
            want = joint(do(scm, "C", x)).marginal(["F"])
            assert got.l1(want) < 1e-9


def test_atomic_identification_random_sweep():
    # random mixed graphs, random outcome sets, three models and both
    # action values per identified query, against the intervened model
    from oracles import random_diagram

    rng = np.random.default_rng(12345)
    compared = 0
    for trial in range(120):
        d = random_diagram(rng, int(rng.integers(3, 7)), p_dir=0.4, p_bi=0.25,
                           latent_fraction=0.35)
        obs = sorted(d.observed)
        if len(obs) < 2:
            continue
        action = obs[int(rng.integers(len(obs)))]
        rest = [o for o in obs if o != action]
        outcome = set(rng.choice(rest, size=int(rng.integers(1, len(rest) + 1)),
                                 replace=False))
        formula = identify_atomic(d, action, outcome)
        if formula is None:
            continue
        assert free_variables(formula) <= outcome | {action}
        for m in range(2):
            scm = random_scm(d, seed=(trial, m))
            table = observational(scm)
            for x in (0, 1):
                got = evaluate(formula, table, fixed={action: x})
                want = joint(do(scm, action, x)).marginal(sorted(outcome))
                assert got.l1(want) <= 1e-9, (trial, m, x)
                compared += 1
    assert compared > 200


def test_policy_identification_random_sweep():
    from causal_imitation.diagram import validate_space
    from oracles import random_diagram

    rng = np.random.default_rng(777)
    compared = 0
    for trial in range(120):
        d = random_diagram(rng, int(rng.integers(3, 7)), p_dir=0.4, p_bi=0.25,
                           latent_fraction=0.3)
        obs = sorted(d.observed)
        if len(obs) < 2:
            continue
        action = obs[int(rng.integers(len(obs)))]
        rest = [o for o in obs if o != action]
        outcome = frozenset(
            str(v) for v in rng.choice(rest, size=int(rng.integers(1, len(rest) + 1)),
                                       replace=False))
        eligible = [z for z in obs if z != action and z not in outcome
                    and not validate_space(d, PolicySpace.create(action, {z}))]
        space = PolicySpace.create(action, {z for z in eligible if rng.uniform() < 0.5})
        formula = identify_policy(d, space, outcome)
        if formula is None:
            continue
        assert free_variables(formula) == outcome
        doms = tuple(2 for _ in sorted(space.inputs))
        for m in range(2):
            scm = random_scm(d, seed=(trial, m, 9))
            table = observational(scm)
            raw = rng.uniform(size=doms + (2,)) + 1e-6
            pol = Policy.create(action, raw / raw.sum(-1, keepdims=True),
                                tuple(sorted(space.inputs)))
            got = evaluate(formula, table,
                           policy=pol if has_policy_factor(formula) else None)
            want = joint(intervene(scm, pol)).marginal(sorted(outcome))
            assert got.l1(want) <= 1e-9, (trial, m)
            compared += 1
    assert compared > 150


def test_identification_soundness_sample():
    # evaluate() against the intervened model across a few random models
    rng = np.random.default_rng(0)
    case = fixtures.diagram_fixture("highway_adjustable")
    g_obs = case.diagram.with_observed({"Y"})
    formula = identify_policy(g_obs, case.space, {"Y"})
    assert formula is not None
    for seed in range(10):
        scm = random_scm(g_obs, seed=seed)
        obs = observational(scm)
        raw = rng.uniform(size=(2, 2)) + 1e-6
        pol = Policy.create("X", raw / raw.sum(-1, keepdims=True), ("Z",))
        got = evaluate(formula, obs, policy=pol)
        want = joint(intervene(scm, pol)).marginal(["Y"])
        assert got.l1(want) < 1e-9
        assert policy_joint_enumeration(scm, pol).marginal(["Y"]).l1(want) < 1e-12
