import numpy as np
import pytest
from hypothesis import given, strategies as st

from causal_imitation import fixtures
from causal_imitation.criteria import direct_parents_imitable, find_pi_backdoor
from causal_imitation.criteria import pi_backdoor_admissible
from causal_imitation.diagram import CausalDiagram, PolicySpace, validate_space
from causal_imitation.scm import conditional_policy, intervene, joint, random_scm

from oracles import is_instrument, is_surrogate, random_diagram, subsets


def fig(name):
    return fixtures.diagram_fixture(name)


# ------------------------------------------------------- direct parents

def test_direct_parents_success():
    d = CausalDiagram.create(observed="XYZ", directed=[("Z", "X"), ("X", "Y")])
    assert direct_parents_imitable(d, PolicySpace.create("X", {"Z"})) == {"Z"}


def test_direct_parents_latent_parent_fails():
    case = fig("highway_opaque")  # X has the latent parent L
    assert direct_parents_imitable(case.diagram, case.space) is None


def test_direct_parents_confounded_action_fails():
    case = fig("frontdoor_observed")  # bidirected edge at X
    assert direct_parents_imitable(case.diagram, case.space) is None


# ------------------------------------------------------- policy backdoor

def test_backdoor_verdicts():
    assert find_pi_backdoor(*_dsr("highway_opaque")) is None
    assert find_pi_backdoor(*_dsr("highway_adjustable")) == {"Z"}
    case = fig("highway_sideinfo")
    assert find_pi_backdoor(case.diagram, case.space, "Y") == {"Z"}
    assert pi_backdoor_admissible(case.diagram, case.space, "Y", {"Z"})
    assert not pi_backdoor_admissible(case.diagram, case.space, "Y", {"Z", "W"})


def _dsr(name):
    case = fig(name)
    return case.diagram, case.space, case.reward


def test_backdoor_requires_subset_of_inputs():
    case = fig("highway_adjustable")
    assert not pi_backdoor_admissible(case.diagram, case.space, "Y", {"Z", "L"})


def test_backdoor_minimal_flag():
    # make the canonical candidate non-minimal: an extra input ancestor of Y
    d = CausalDiagram.create(
        observed="AXYZ",
        directed=[("A", "Z"), ("Z", "X"), ("Z", "Y"), ("X", "Y"), ("A", "Y")],
    )
    space = PolicySpace.create("X", {"Z", "A"})
    assert find_pi_backdoor(d, space, "Y") == {"Z", "A"}
    assert find_pi_backdoor(d, space, "Y", minimal=True) == {"Z"}


@given(st.integers(0, 1500))
def test_backdoor_candidate_is_complete(seed):
    # brute force over all input subsets agrees with the single-candidate test
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, int(rng.integers(3, 7)), latent_fraction=0.3)
    obs = sorted(d.observed)
    if len(obs) < 2:
        return
    action = obs[int(rng.integers(len(obs)))]
    reward = sorted(set(d.nodes) - {action})[int(rng.integers(len(d.nodes) - 1))]
    eligible = [z for z in obs if z not in (action, reward)
                and not validate_space(d, PolicySpace.create(action, {z}))]
    space = PolicySpace.create(action, {z for z in eligible if rng.uniform() < 0.7})
    brute = any(pi_backdoor_admissible(d, space, reward, set(s)) for s in subsets(space.inputs))
    assert brute == (find_pi_backdoor(d, space, reward) is not None)


@given(st.integers(0, 1500))
def test_direct_parents_implies_backdoor(seed):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, int(rng.integers(2, 7)), latent_fraction=0.3)
    obs = sorted(d.observed)
    if not obs:
        return
    action = obs[int(rng.integers(len(obs)))]
    space = PolicySpace.create(action, d.parents(action) & d.observed)
    if validate_space(d, space):
        return
    pa = direct_parents_imitable(d, space)
    if pa is None:
        return
    for reward in sorted(set(d.nodes) - {action} - pa):
        assert pi_backdoor_admissible(d, space, reward, pa)


def test_backdoor_policy_imitates_in_model():
    # cloning on the admissible set matches the expert reward exactly
    for name in ("highway_adjustable", "backdoor_observed"):
        case = fig(name)
        z = find_pi_backdoor(case.diagram, case.space, case.reward)
        assert z is not None
        for seed in range(10):
            scm = random_scm(case.diagram.with_observed({case.reward}), seed=seed)
            obs = joint(scm).marginal(case.diagram.observed | {case.reward})
            pol = conditional_policy(obs, case.space.action, z)
            expert = joint(scm).marginal([case.reward])
            imitated = joint(intervene(scm, pol)).marginal([case.reward])
            assert expert.l1(imitated) < 1e-9


# ------------------------------------------------------- surrogates

def test_surrogates_on_mediator_chain():
    case = fig("frontdoor_latent")
    assert is_surrogate(case.diagram, case.space, "Y", {"S"})
    assert is_surrogate(case.diagram, case.space, "Y", {"W", "S"})
    assert not is_surrogate(case.diagram, case.space, "Y", {"W"})


def test_surrogate_disconnected_reward():
    d = CausalDiagram.create(observed="XW", latent="Y", directed=[("X", "W")])
    assert is_surrogate(d, PolicySpace.create("X", ()), "Y", set())


def test_surrogate_rejects_latent_member():
    case = fig("frontdoor_latent")
    with pytest.raises(ValueError):
        is_surrogate(case.diagram, case.space, "Y", {"Y"})


def test_observed_reward_is_its_own_surrogate():
    case = fig("frontdoor_observed")
    assert is_surrogate(case.diagram, case.space, "Y", {"Y"})


# ------------------------------------------------------- instruments

def test_instrument_cases_confounded_mediator():
    case = fig("frontdoor_confounded")
    marginal_space = PolicySpace.create("X", ())
    assert is_instrument(case.diagram, case.space, "Y", {"S"}, marginal_space)
    assert not is_instrument(case.diagram, case.space, "Y", {"S"}, case.space)


def test_instrument_empty_surrogate_fails_when_reward_reachable():
    case = fig("frontdoor_latent")
    assert not is_instrument(case.diagram, case.space, "Y", set(), case.space)


def test_instrument_requires_subspace():
    case = fig("frontdoor_confounded")
    with pytest.raises(ValueError):
        is_instrument(case.diagram, PolicySpace.create("X", ()), "Y", {"S"}, case.space)
