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

from .diagram import (
    CausalDiagram,
    PolicySpace,
    _moral_adjacency,
    _reach,
    augment_policy,
    d_separated,
    hat_name,
)
from .identify import IdFormula, identify_policy


def _neighborhood(adj: dict[str, set[str]], comp: set[str]) -> frozenset[str]:
    out: set[str] = set()
    for n in comp:
        out |= adj[n]
    return frozenset(out - comp)


def _trim(adj: dict[str, set[str]], a: str, b: str, sep: frozenset[str]) -> frozenset[str]:
    """Shrink a separator to an inclusion-minimal one: keep the boundary of
    a's component, then the boundary of b's component of what remains."""
    s1 = _neighborhood(adj, _reach({a}, adj.__getitem__, sep))
    return _neighborhood(adj, _reach({b}, adj.__getitem__, s1))


def list_min_separators(diagram: CausalDiagram, a: str, b: str,
                        restrict: Iterable[str]) -> Iterator[frozenset[str]]:
    """Yield every inclusion-minimal set within ``restrict`` that d-separates
    ``a`` from ``b``, each exactly once, smallest lexicographic order first.
    """
    for n in (a, b):
        if not diagram.has_node(n):
            raise ValueError(f"unknown node {n!r}")
    adj = _moral_adjacency(diagram, frozenset({a, b}))
    candidates = frozenset(restrict) & frozenset(adj) - {a, b}

    def separates(cut: frozenset[str]) -> bool:
        return b not in _reach({a}, adj.__getitem__, cut)

    found: set[frozenset[str]] = set()
    stack = [frozenset()]
    seen_excl: set[frozenset[str]] = {frozenset()}
    while stack:
        excluded = stack.pop()
        allowed = candidates - excluded
        if not separates(allowed):
            continue
        sep = _trim(adj, a, b, allowed)
        found.add(sep)
        # branch on every member even when sep was seen before: a target
        # separator may only be reachable through this exclusion state
        for v in sorted(sep):
            nxt = excluded | {v}
            if nxt not in seen_excl:
                seen_excl.add(nxt)
                stack.append(nxt)
    yield from sorted(found, key=lambda s: tuple(sorted(s)))


def list_id_subspaces(diagram: CausalDiagram, space: PolicySpace,
                      outcome: Iterable[str]) -> Iterator[PolicySpace]:
    """Yield every policy subspace whose interventional outcome distribution
    is identifiable, exactly once, include-branch first."""
    target = frozenset(outcome)

    def helper(lower: frozenset[str], upper: frozenset[str]) -> Iterator[PolicySpace]:
        # lower is known identifiable and the exclude branch keeps it, so
        # every space is asked about once
        if lower == upper:
            yield PolicySpace(space.action, lower)
            return
        v = min(upper - lower)
        if identify_policy(diagram, PolicySpace(space.action, lower | {v}), target) is not None:
            yield from helper(lower | {v}, upper)
        yield from helper(lower, upper - {v})

    if identify_policy(diagram, PolicySpace(space.action, frozenset()), target) is not None:
        yield from helper(frozenset(), space.inputs)


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
    g_reward_obs = diagram.with_observed({reward})
    for subspace in list_id_subspaces(g_reward_obs, space, {reward}):
        for surrogate in surrogate_candidates(diagram, subspace, reward):
            formula = identify_policy(diagram, subspace, surrogate)
            if formula is not None:
                yield subspace, surrogate, formula
