"""Graphical imitability tests.

The reward node is an explicit argument everywhere; multi-reward queries run
per node.
"""
from __future__ import annotations

from typing import Iterable

from .diagram import CausalDiagram, PolicySpace, d_separated, mutilate, require_valid_space


def direct_parents_imitable(diagram: CausalDiagram, space: PolicySpace) -> frozenset[str] | None:
    """Conditioning set pa(action) when cloning on the action's own parents
    is guaranteed to imitate: all parents readable by the policy and no
    bidirected edge at the action.  ``None`` otherwise."""
    require_valid_space(diagram, space)
    pa = diagram.parents(space.action)
    if pa <= space.inputs and not diagram.siblings(space.action):
        return frozenset(pa)
    return None


def pi_backdoor_admissible(diagram: CausalDiagram, space: PolicySpace, reward: str,
                           zset: Iterable[str]) -> bool:
    """Does ``zset`` satisfy the policy backdoor criterion: a subset of the
    policy inputs separating reward from action once the action's outgoing
    edges are removed?"""
    zs = frozenset(zset)
    if not diagram.has_node(reward):
        raise ValueError(f"unknown reward node {reward!r}")
    if not zs <= space.inputs:
        return False
    if reward in zs:
        # conditioning on the reward itself is never a usable prescription
        return False
    cut = mutilate(diagram, cut_outgoing={space.action})
    return d_separated(cut, {reward}, {space.action}, zs)


def find_pi_backdoor(diagram: CausalDiagram, space: PolicySpace, reward: str,
                     minimal: bool = False) -> frozenset[str] | None:
    """Admissible set for the policy backdoor criterion, or ``None``.

    Testing one candidate is complete: the inputs ancestral to the action or
    reward.  Minimal separators live among the endpoints' ancestors, and
    separation is monotone there, so if the candidate fails no admissible
    set exists.  (When the reward descends from the action, the candidate is
    exactly the inputs ancestral to the reward.)  With ``minimal`` the
    candidate is greedily shrunk while it stays admissible.
    """
    require_valid_space(diagram, space)
    zstar = (diagram.ancestors({reward, space.action}, inclusive=True)
             & space.inputs) - {reward}
    if not pi_backdoor_admissible(diagram, space, reward, zstar):
        return None
    if minimal:
        kept = set(zstar)
        for z in sorted(zstar):
            if pi_backdoor_admissible(diagram, space, reward, kept - {z}):
                kept.discard(z)
        zstar = frozenset(kept)
    return frozenset(zstar)


def graphical_verdict(diagram: CausalDiagram, space: PolicySpace,
                      reward: str) -> tuple[str, frozenset[str] | None]:
    """Decision of the complete graphical criterion: the returned witness is
    the conditioning set of the prescribed cloning policy."""
    pa = direct_parents_imitable(diagram, space)
    if pa is not None:
        return "imitable-graphical", pa
    z = find_pi_backdoor(diagram, space, reward)
    if z is not None:
        return "imitable-graphical", z
    return "not-imitable-graphical", None
