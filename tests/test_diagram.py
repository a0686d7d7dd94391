import numpy as np
import pytest
from hypothesis import given, strategies as st

from causal_imitation import diagram as diagram_module, fixtures
from causal_imitation.diagram import (
    CausalDiagram,
    PolicySpace,
    augment_policy,
    d_separated,
    format_diagram,
    hat_name,
    manipulated,
    mutilate,
    parse_diagram_text,
    validate,
    validate_space,
)
from causal_imitation.errors import ParseError

from oracles import brute_ancestors, brute_descendants, d_separated_paths, random_diagram


def fig(name):
    return fixtures.diagram_fixture(name)


# ---------------------------------------------------------------------- validate

def test_validate_fixture_ok():
    assert validate(fig("highway_adjustable").diagram) == []


def test_validate_cycle():
    with pytest.raises(ValueError, match="invalid diagram: cycle in directed edges"):
        CausalDiagram.create(observed="AB", directed=[("A", "B"), ("B", "A")])


def test_validate_unknown_node():
    with pytest.raises(ValueError, match="unknown node 'Q' in edge X -> Q"):
        CausalDiagram(nodes=("X",), observed=frozenset("X"),
                      directed=frozenset({("X", "Q")}), bidirected=frozenset())


@pytest.mark.parametrize("nodes", [("Y", "X"), ("X", "X")])
def test_validate_nodes_sorted_and_distinct(nodes):
    # the index numbers the nodes in the order given, and every query reads
    # that order as the sorted one
    with pytest.raises(ValueError, match="invalid diagram: nodes must be sorted and distinct"):
        CausalDiagram(nodes=nodes, observed=frozenset(nodes), directed=frozenset(), bidirected=frozenset())


def test_validate_self_loop():
    with pytest.raises(ValueError, match="self-loop X -> X"):
        CausalDiagram(nodes=("X",), observed=frozenset("X"),
                      directed=frozenset({("X", "X")}), bidirected=frozenset())


# ---------------------------------------------------------------------- ancestors / descendants

def test_descendants_chain():
    d = fig("frontdoor_latent").diagram
    assert d.descendants({"X"}) == {"X", "W", "S", "Y"}


def test_ancestors_empty_seed():
    d = fig("highway_opaque").diagram
    assert d.ancestors(set()) == frozenset()


def test_ancestors_reward():
    # transitive closure over the intro-highway edges, worked by hand
    d = fig("highway_opaque").diagram
    assert d.ancestors({"Y"}) == {"Y", "X", "Z", "L"}


def test_closure_unknown_node():
    with pytest.raises(ValueError):
        fig("chain_latent").diagram.ancestors({"Q"})


@given(st.integers(0, 2000), st.integers(2, 7))
def test_closure_monotone_and_idempotent(seed, n):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, n)
    nodes = sorted(d.nodes)
    small = set(rng.choice(nodes, size=rng.integers(0, n), replace=False))
    big = small | set(rng.choice(nodes, size=rng.integers(0, n), replace=False))
    a, b = d.ancestors(small), d.ancestors(big)
    assert a <= b
    assert d.ancestors(a) == a


@given(st.integers(0, 2000), st.integers(2, 8))
def test_closure_matches_path_enumeration(seed, n):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, n, latent_fraction=0.3)
    seed_set = set(rng.choice(sorted(d.nodes), size=rng.integers(0, n), replace=False))
    for inclusive in (True, False):
        assert d.ancestors(seed_set, inclusive) == brute_ancestors(d, seed_set, inclusive)
        assert d.descendants(seed_set, inclusive) == brute_descendants(d, seed_set, inclusive)


# ---------------------------------------------------------------------- mutilate

def test_mutilate_outgoing_highway():
    d = fig("highway_adjustable").diagram
    cut = mutilate(d, cut_outgoing={"X"})
    assert ("X", "Y") not in cut.directed
    assert cut.directed | {("X", "Y")} == d.directed


def test_mutilate_incoming_highway():
    d = fig("highway_opaque").diagram
    cut = mutilate(d, cut_incoming={"X"})
    assert d.directed - cut.directed == {("Z", "X"), ("L", "X")}
    assert cut.nodes == d.nodes


def test_mutilate_idempotent():
    d = fig("frontdoor_confounded").diagram
    once = mutilate(d, cut_incoming={"X"}, cut_outgoing={"S"})
    twice = mutilate(once, cut_incoming={"X"}, cut_outgoing={"S"})
    assert once == twice


def test_mutilate_removes_bidirected_at_cut_incoming():
    d = fig("frontdoor_confounded").diagram
    cut = mutilate(d, cut_incoming={"X"})
    assert all("X" not in e for e in cut.bidirected)


@given(st.integers(0, 2000))
def test_mutilate_preserves_validity(seed):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, int(rng.integers(2, 7)))
    assert validate(d) == []
    nodes = sorted(d.nodes)
    inc = set(rng.choice(nodes, size=rng.integers(0, len(nodes)), replace=False))
    out = set(rng.choice(nodes, size=rng.integers(0, len(nodes)), replace=False))
    assert validate(mutilate(d, inc, out)) == []


# ---------------------------------------------------------------------- policy spaces

def test_space_invariants():
    d = fig("highway_adjustable").diagram
    assert validate_space(d, PolicySpace.create("X", {"Z"})) == []
    assert validate_space(d, PolicySpace.create("X", {"L"}))  # latent input
    assert validate_space(d, PolicySpace.create("X", {"X"}))  # self input
    # Y is a descendant of X
    assert validate_space(d, PolicySpace.create("Z", {"Y"}))


def test_augment_policy_no_inputs():
    case = fig("frontdoor_latent")
    aug = augment_policy(case.diagram, case.space)
    hat = hat_name("X")
    assert aug.directed - case.diagram.directed == {(hat, "X")}
    assert hat in aug.observed and aug.bidirected == case.diagram.bidirected


def test_augment_policy_adds_input_edges():
    case = fig("frontdoor_confounded")
    aug = augment_policy(case.diagram, case.space)
    assert aug.directed - case.diagram.directed == {("Z", "X"), (hat_name("X"), "X")}


def test_augment_policy_no_duplicate_edges():
    d = fig("backdoor_observed").diagram  # Z -> X already present
    aug = augment_policy(d, PolicySpace.create("X", {"Z"}))
    assert len([e for e in aug.directed if e == ("Z", "X")]) == 1


def test_augment_policy_name_collision():
    d = CausalDiagram.create(observed=["X", hat_name("X")], directed=[])
    with pytest.raises(ValueError, match="reserved"):
        augment_policy(d, PolicySpace.create("X", ()))


def test_manipulated_keeps_input_edge():
    case = fig("highway_opaque")
    m = manipulated(case.diagram, case.space)
    assert ("Z", "X") in m.directed
    assert ("L", "X") not in m.directed


def test_manipulated_no_inputs_is_incoming_cut():
    d = fig("highway_adjustable").diagram
    assert manipulated(d, PolicySpace.create("X", ())) == mutilate(d, cut_incoming={"X"})


def test_manipulated_roundtrip_when_inputs_are_parents():
    d = fig("backdoor_observed").diagram
    m = manipulated(d, PolicySpace.create("X", {"Z"}))
    assert m.directed == d.directed
    assert all("X" not in e for e in m.bidirected)


# ---------------------------------------------------------------------- d-separation

def test_pi_backdoor_separation_adjustable():
    cut = mutilate(fig("highway_adjustable").diagram, cut_outgoing={"X"})
    assert d_separated(cut, {"Y"}, {"X"}, {"Z"})


def test_pi_backdoor_separation_fails_opaque():
    cut = mutilate(fig("highway_opaque").diagram, cut_outgoing={"X"})
    assert not d_separated(cut, {"Y"}, {"X"}, {"Z"})


def test_disconnected_components_separated():
    d = CausalDiagram.create(observed="XYAB", directed=[("X", "A"), ("Y", "B")])
    assert d_separated(d, {"X"}, {"Y"}, set())


def test_d_separated_rejects_overlap():
    d = fig("chain_latent").diagram
    with pytest.raises(ValueError):
        d_separated(d, {"X"}, {"X"}, set())


@given(st.integers(0, 4000))
def test_d_separation_symmetry(seed):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, int(rng.integers(2, 7)))
    nodes = sorted(d.nodes)
    labels = rng.integers(0, 4, size=len(nodes))
    a = {n for n, l in zip(nodes, labels) if l == 0}
    b = {n for n, l in zip(nodes, labels) if l == 1}
    c = {n for n, l in zip(nodes, labels) if l == 2}
    assert d_separated(d, a, b, c) == d_separated(d, b, a, c)


@given(st.integers(0, 4000))
def test_d_separation_matches_path_oracle(seed):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, int(rng.integers(2, 7)))
    nodes = sorted(d.nodes)
    labels = rng.integers(0, 4, size=len(nodes))
    a = {n for n, l in zip(nodes, labels) if l == 0}
    b = {n for n, l in zip(nodes, labels) if l == 1}
    c = {n for n, l in zip(nodes, labels) if l == 2}
    assert d_separated(d, a, b, c) == d_separated_paths(d, a, b, c)


def test_separation_oracle_runs_no_library_walk(monkeypatch):
    # the oracle takes An(C) from enumerated directed paths, so a fault in
    # the library's walk, say at colliders, cannot hide in the oracle too
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(60):
        d = random_diagram(rng, int(rng.integers(3, 7)), latent_fraction=0.3)
        nodes = sorted(d.nodes)
        labels = rng.integers(0, 4, size=len(nodes))
        a, b, c = ({n for n, l in zip(nodes, labels) if l == i} for i in range(3))
        if a and b:
            cases.append((d, a, b, c, d_separated(d, a, b, c)))

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran a library walk")

    monkeypatch.setattr(diagram_module, "_reach", refuse)
    monkeypatch.setattr(CausalDiagram, "ancestors", refuse)
    monkeypatch.setattr(CausalDiagram, "descendants", refuse)
    for d, a, b, c, expected in cases:
        assert d_separated_paths(d, a, b, c) == expected


# ---------------------------------------------------------------------- text format

def test_parse_and_roundtrip_all_fixtures():
    for name, text in fixtures.DIAGRAM_TEXT.items():
        d1, s1 = parse_diagram_text(text)
        d2, s2 = parse_diagram_text(format_diagram(d1, s1))
        assert (d1, s1) == (d2, s2), name


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_diagram_text("node A obs\nnode B obs\nnode A lat\n")


def test_parse_duplicate_edge():
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_diagram_text("node A obs\nnode B obs\nedge A -> B\nedge A -> B\n")


def test_parse_comments_and_order_insensitive():
    d, space = parse_diagram_text(
        "# comment\nedge A -> B  # trailing\nnode B obs\nnode A obs\npolicy action B inputs A\n"
    )
    assert d.directed == {("A", "B")}
    assert space == PolicySpace.create("B", {"A"})
