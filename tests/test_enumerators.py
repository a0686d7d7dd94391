import numpy as np
from hypothesis import given, settings, strategies as st

from causal_imitation import enumerators, fixtures
from causal_imitation.diagram import (
    CausalDiagram,
    PolicySpace,
    augment_policy,
    hat_name,
    validate_space,
)
from causal_imitation.enumerators import list_id_subspaces, list_min_separators
from causal_imitation.identify import identify_policy

from oracles import brute_id_subspaces, brute_min_separators, random_diagram, subsets


def fig(name):
    return fixtures.diagram_fixture(name)


# ------------------------------------------------------- minimal separators

def test_mediator_chain_minimal_surrogate():
    case = fig("frontdoor_latent")
    aug = augment_policy(case.diagram, case.space)
    got = list(list_min_separators(aug, hat_name("X"), "Y", case.diagram.observed - {"X"}))
    assert got == [frozenset({"S"})]


def test_disconnected_pair_yields_empty_set():
    d = CausalDiagram.create(observed="ABXY", directed=[("A", "X"), ("B", "Y")])
    assert list(list_min_separators(d, "X", "Y", {"A", "B"})) == [frozenset()]


def test_adjacent_pair_has_no_separator():
    d = CausalDiagram.create(observed="XY", directed=[("X", "Y")])
    assert list(list_min_separators(d, "X", "Y", set())) == []


def test_sideinfo_matches_brute_force():
    case = fig("highway_sideinfo")
    aug = augment_policy(case.diagram, case.space)
    restrict = case.diagram.observed - {"X"}
    got = list(list_min_separators(aug, hat_name("X"), "Y", restrict))
    assert got == brute_min_separators(aug, hat_name("X"), "Y", restrict)


def test_all_fixture_pairs_match_brute_force():
    for name in fixtures.diagram_names():
        case = fig(name)
        diagrams = [case.diagram, augment_policy(case.diagram, case.space)]
        for d in diagrams:
            nodes = sorted(d.nodes)
            for a in nodes:
                for b in nodes:
                    if b <= a:
                        continue
                    restrict = d.observed - {a, b}
                    got = list(list_min_separators(d, a, b, restrict))
                    assert got == brute_min_separators(d, a, b, restrict), (name, a, b)
                    assert len(got) == len(set(got))


@given(st.integers(0, 800))
@settings(max_examples=40)
def test_random_diagrams_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, int(rng.integers(3, 8)), latent_fraction=0.2)
    nodes = sorted(d.nodes)
    a, b = nodes[0], nodes[-1]
    if a == b:
        return
    restrict = frozenset(rng.choice(sorted(set(nodes) - {a, b}),
                                    size=rng.integers(0, len(nodes) - 1), replace=False))
    got = list(list_min_separators(d, a, b, restrict))
    assert got == brute_min_separators(d, a, b, restrict)


# ------------------------------------------------------- identifiable subspaces

def test_confounded_covariate_prunes_full_space():
    case = fig("frontdoor_confounded")
    g_obs = case.diagram.with_observed({"Y"})
    got = [s for s, _ in list_id_subspaces(g_obs, case.space, {"Y"})]
    assert got == [PolicySpace.create("X", ())]


def test_markovian_space_yields_every_subset():
    d = CausalDiagram.create(
        observed="ABXY",
        directed=[("A", "X"), ("B", "X"), ("X", "Y"), ("A", "Y"), ("B", "Y")],
    )
    space = PolicySpace.create("X", {"A", "B"})
    pairs = list(list_id_subspaces(d, space, {"Y"}))
    got = [s for s, _ in pairs]
    assert len(got) == 4
    assert {s.inputs for s in got} == {frozenset(s) for s in subsets({"A", "B"})}
    # include-branch first: the full input set comes out first
    assert got[0].inputs == {"A", "B"}
    # each subspace comes with the formula that identifies it
    assert all(f == identify_policy(d, s, {"Y"}) for s, f in pairs)


def test_subspaces_match_brute_force_on_fixtures():
    for name in fixtures.diagram_names():
        case = fig(name)
        g_obs = case.diagram.with_observed({case.reward})
        got = [s.inputs for s, _ in list_id_subspaces(g_obs, case.space, {case.reward})]
        assert len(got) == len(set(got)), name
        assert sorted(got, key=lambda s: tuple(sorted(s))) == \
            brute_id_subspaces(g_obs, case.space, {case.reward}), name


def _random_subspace_problem(seed):
    """A diagram, a space over every eligible input and an outcome set, or
    ``None`` when the draw leaves too few observed nodes or no outcome."""
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, 6, latent_fraction=0.25)
    obs = sorted(d.observed)
    if len(obs) < 3:
        return None
    action = obs[int(rng.integers(len(obs)))]
    outcome = {o for o in obs if o != action and rng.uniform() < 0.4}
    if not outcome:
        return None
    eligible = [z for z in obs if z not in outcome and z != action
                and not validate_space(d, PolicySpace.create(action, {z}))]
    return d, PolicySpace.create(action, eligible), outcome


@given(st.integers(0, 400))
@settings(max_examples=25)
def test_subspaces_match_brute_force_random(seed):
    problem = _random_subspace_problem(seed)
    if problem is None:
        return
    d, space, outcome = problem
    got = [s.inputs for s, _ in list_id_subspaces(d, space, outcome)]
    assert len(got) == len(set(got))
    assert sorted(got, key=lambda s: tuple(sorted(s))) == brute_id_subspaces(d, space, outcome)


def test_list_id_subspaces_identifies_each_subspace_once(monkeypatch):
    queries = []

    def counted(diagram, space, outcome):
        queries.append((space, frozenset(outcome)))
        return identify_policy(diagram, space, outcome)

    monkeypatch.setattr(enumerators, "identify_policy", counted)
    problems = [_random_subspace_problem(seed) for seed in range(40)]
    for name in fixtures.diagram_names():
        case = fig(name)
        problems.append((case.diagram.with_observed({case.reward}), case.space, {case.reward}))
    asked = 0
    for d, space, outcome in filter(None, problems):
        queries.clear()
        got = [s.inputs for s, _ in list_id_subspaces(d, space, outcome)]
        assert len(queries) == len(set(queries)), (d, space)
        asked += len(queries)
        # include-branch first: a member's presence outranks its absence,
        # taken over the inputs in sorted order
        order = sorted(space.inputs)
        expected = sorted(brute_id_subspaces(d, space, outcome), key=lambda s: [v not in s for v in order])
        assert got == expected, (d, space)
    assert asked > 50


def test_pruning_monotonicity_on_fixtures():
    # identifiability is downward closed over input sets on every fixture,
    # which is exactly what licenses pruning on the lower space
    for name in fixtures.diagram_names():
        case = fig(name)
        g_obs = case.diagram.with_observed({case.reward})
        status = {
            frozenset(s): identify_policy(
                g_obs, PolicySpace.create(case.space.action, frozenset(s)), {case.reward}
            ) is not None
            for s in subsets(case.space.inputs)
        }
        for small, ok_small in status.items():
            for big, ok_big in status.items():
                if small <= big and not ok_small:
                    assert not ok_big, (name, small, big)


def test_everything_pruned_when_no_input_space_fails():
    case = fig("highway_opaque")
    g_obs = case.diagram.with_observed({"Y"})
    assert identify_policy(g_obs, PolicySpace.create("X", ()), {"Y"}) is None
    for s in subsets(case.space.inputs):
        assert identify_policy(g_obs, PolicySpace.create("X", frozenset(s)), {"Y"}) is None
    assert list(list_id_subspaces(g_obs, case.space, {"Y"})) == []


def test_instruments_ask_each_identification_once(monkeypatch):
    # the last-resort surrogate {reward} of an observed reward is the query
    # the subspace search has asked already, on the same diagram
    from test_graph_layer import draw_problem

    queries = []

    def counted(diagram, space, outcome):
        queries.append((diagram, space, frozenset(outcome)))
        return identify_policy(diagram, space, outcome)

    monkeypatch.setattr(enumerators, "identify_policy", counted)
    problems = [(case.diagram, case.space, case.reward) for case in map(fig, fixtures.diagram_names())]
    problems += [(d, PolicySpace.create(action, inputs), reward)
                 for d, action, inputs, reward in map(draw_problem, range(150))]
    reused = 0
    for d, space, reward in problems:
        queries.clear()
        found = list(enumerators.instruments(d, space, reward))
        assert len(queries) == len(set(queries)), (d, space, reward)
        reused += sum(reward in d.observed and s == {reward} for _, s, _ in found)
    assert reused > 20
