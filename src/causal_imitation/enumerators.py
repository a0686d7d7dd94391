"""The search for instruments and the enumerators behind it:
inclusion-minimal separating sets and identifiable policy subspaces.

Minimal separators are enumerated on the moralized ancestral graph of the
two endpoints (minimal d-separators always live among their ancestors) by
branching on exclusions of members of a found separator; results come out
smallest-first in lexicographic order.  Subspace enumeration backtracks over
input subsets and prunes on the lower space, which is sound because
identifiability over a space implies identifiability over every subspace.
``instruments`` pairs each identifiable subspace with its minimal
surrogates.  All of it is graph work: nothing here evaluates a formula.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .diagram import (CausalDiagram, PolicySpace, _bits, _moral_adjacency, _reach, _spread, augment_policy,
                      d_separated, hat_name, require_valid_space)
from .identify import IdFormula, identify_policy


def _trim(adj: list[int], a: int, b: int, sep: int) -> int:
    """Shrink a separator to an inclusion-minimal one: keep the boundary of
    a's component, then the boundary of b's component of what remains."""
    comp = _reach(a, adj, sep)
    comp = _reach(b, adj, _spread(comp, adj) & ~comp)
    return _spread(comp, adj) & ~comp


def list_min_separators(diagram: CausalDiagram, a: str, b: str,
                        restrict: Iterable[str]) -> Iterator[frozenset[str]]:
    """Yield every inclusion-minimal set within ``restrict`` that d-separates
    ``a`` from ``b``, each exactly once, smallest lexicographic order first.
    """
    am, bm = diagram._mask({a}), diagram._mask({b})
    anc, adj = _moral_adjacency(diagram, am | bm)
    candidates = diagram._mask(r for r in restrict if diagram.has_node(r)) & anc & ~(am | bm)
    found: set[int] = set()
    stack = [0]
    seen_excl: set[int] = {0}
    while stack:
        excluded = stack.pop()
        allowed = candidates & ~excluded
        if _reach(am, adj, allowed) & bm:
            continue
        sep = _trim(adj, am, bm, allowed)
        found.add(sep)
        # branch on every member even when sep was seen before: a target
        # separator may only be reachable through this exclusion state
        for v in _bits(sep):
            nxt = excluded | 1 << v
            if nxt not in seen_excl:
                seen_excl.add(nxt)
                stack.append(nxt)
    for sep in sorted(found, key=lambda s: [diagram.nodes[i] for i in _bits(s)]):
        yield diagram._names_of(sep)


def list_id_subspaces(diagram: CausalDiagram, space: PolicySpace,
                      outcome: Iterable[str]) -> Iterator[tuple[PolicySpace, IdFormula]]:
    """Yield every policy subspace whose interventional outcome distribution
    is identifiable, with its identifying formula, exactly once,
    include-branch first."""
    target = frozenset(outcome)

    def helper(lower: frozenset[str], upper: frozenset[str], formula: IdFormula):
        # lower is known identifiable and the exclude branch keeps it, so
        # every space is asked about once
        if lower == upper:
            yield PolicySpace(space.action, lower), formula
            return
        v = min(upper - lower)
        wider = identify_policy(diagram, PolicySpace(space.action, lower | {v}), target)
        if wider is not None:
            yield from helper(lower | {v}, upper, wider)
        yield from helper(lower, upper - {v}, formula)

    formula = identify_policy(diagram, PolicySpace(space.action, frozenset()), target)
    if formula is not None:
        yield from helper(frozenset(), space.inputs, formula)


def surrogate_candidates(diagram: CausalDiagram, subspace: PolicySpace,
                         reward: str) -> Iterator[frozenset[str]]:
    """Minimal surrogate sets for a subspace, in deterministic order.

    Candidates are drawn from the observed nodes other than the action; an
    observed reward is itself a (last-resort) minimal surrogate whenever the
    empty set fails.
    """
    aug = augment_policy(diagram, subspace)
    hat = hat_name(subspace.action)
    cands = diagram.observed - {subspace.action, reward}
    yield from list_min_separators(aug, hat, reward, cands)
    if reward in diagram.observed and not d_separated(aug, {hat}, {reward}, frozenset()):
        yield frozenset({reward})


def instruments(diagram: CausalDiagram, space: PolicySpace,
                reward: str) -> Iterator[tuple[PolicySpace, frozenset[str], IdFormula]]:
    """The instrument search: every identifiable policy subspace, then the
    minimal surrogates within each, yielding ``(subspace, surrogate,
    formula)`` for each pair whose surrogate distribution is identified."""
    # the search stops when the empty space is not identifiable, before any
    # query would check the inputs
    require_valid_space(diagram, space)
    g_reward_obs = diagram.with_observed({reward})
    for subspace, reward_formula in list_id_subspaces(g_reward_obs, space, {reward}):
        for surrogate in surrogate_candidates(diagram, subspace, reward):
            if reward in diagram.observed and surrogate == {reward}:
                # g_reward_obs is the diagram, so the subspace search has
                # asked this query already
                formula = reward_formula
            else:
                formula = identify_policy(diagram, subspace, surrogate)
            if formula is not None:
                yield subspace, surrogate, formula
