import numpy as np
from hypothesis import given, strategies as st

from causal_imitation import fixtures
from causal_imitation.diagram import CausalDiagram, d_separated, validate
from causal_imitation.projection import project
from causal_imitation.scm import joint, random_scm

from oracles import brute_project, conditionally_independent, random_diagram, subsets


def test_semi_markovian_fixed_point():
    d = fixtures.diagram_fixture("frontdoor_observed").diagram
    assert project(d) == d


def test_latent_chain_becomes_edge():
    d = CausalDiagram.create(observed="ZX", latent="L",
                             directed=[("Z", "L"), ("L", "X")])
    h = project(d)
    assert h.directed == {("Z", "X")} and not h.bidirected


def test_latent_common_cause_becomes_bidirected():
    d = CausalDiagram.create(observed="SE", latent="L",
                             directed=[("L", "S"), ("L", "E")])
    h = project(d)
    assert h.bidirected == {("E", "S")} and not h.directed


def test_bidirected_through_latent_chain():
    # S <- A, A <-> B, B -> E with A, B latent: confounding survives projection
    d = CausalDiagram.create(observed="SE", latent="AB",
                             directed=[("A", "S"), ("B", "E")], bidirected=[("A", "B")])
    assert project(d).bidirected == {("E", "S")}


def test_bidirected_at_observed_endpoint_through_latent():
    # S <-> V, V -> E with V latent
    d = CausalDiagram.create(observed="SE", latent="V",
                             directed=[("V", "E")], bidirected=[("S", "V")])
    assert project(d).bidirected == {("E", "S")}


def test_direct_edge_and_confounder_both_kept():
    d = CausalDiagram.create(observed="AB", latent="L",
                             directed=[("A", "B"), ("L", "A"), ("L", "B")])
    h = project(d)
    assert h.directed == {("A", "B")} and h.bidirected == {("A", "B")}


def test_projection_of_sideinfo_fixture():
    case = fixtures.diagram_fixture("highway_sideinfo")
    h = project(case.diagram.with_observed({"Y"}))
    assert h.directed == {("Z", "X"), ("Z", "W"), ("Z", "Y"), ("X", "Y")}
    assert h.bidirected == {("W", "X"), ("Y", "Z"), ("W", "Y"), ("W", "Z")}


@given(st.integers(0, 3000), st.integers(1, 8))
def test_projection_matches_path_enumeration(seed, n):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, n, latent_fraction=0.3)
    assert project(d) == brute_project(d)


@given(st.integers(0, 3000))
def test_projection_idempotent_and_acyclic(seed):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, int(rng.integers(2, 7)), latent_fraction=0.4)
    h = project(d)
    assert validate(h) == []
    assert set(h.nodes) == d.observed and h.observed == d.observed
    assert project(h) == h


@given(st.integers(0, 1500))
def test_projection_preserves_separations(seed):
    # d-separation among observed nodes in the projection implies it in the
    # original diagram (the projection only merges latent detail)
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, int(rng.integers(3, 7)), latent_fraction=0.4)
    h = project(d)
    obs = sorted(d.observed)
    labels = rng.integers(0, 4, size=len(obs))
    a = {n for n, l in zip(obs, labels) if l == 0}
    b = {n for n, l in zip(obs, labels) if l == 1}
    c = {n for n, l in zip(obs, labels) if l == 2}
    if d_separated(h, a, b, c):
        assert d_separated(d, a, b, c)


def test_projected_separation_implies_independence_in_model():
    # observational CI of an exact model respects the projected diagram
    case = fixtures.diagram_fixture("frontdoor_confounded")
    h = project(case.diagram)
    for seed in range(5):
        scm = random_scm(case.diagram.with_observed({"Y"}), seed=seed)
        table = joint(scm).marginal(case.diagram.observed)
        obs = sorted(case.diagram.observed)
        for a in obs:
            for b in obs:
                if b <= a:
                    continue
                for c in subsets(set(obs) - {a, b}):
                    if d_separated(h, {a}, {b}, set(c)):
                        assert conditionally_independent(table, {a}, {b}, set(c))
