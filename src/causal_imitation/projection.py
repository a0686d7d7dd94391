"""Latent projection onto the observed nodes.

The projection keeps every observed node, adds a -> b when a reaches b
through latent nodes only, and adds a <-> b when a latent-only structure
(a direct bidirected edge, a bidirected edge between latent chains, or a
latent common-cause fork) confounds the pair.  The result is
semi-Markovian: every node observed.
"""
from __future__ import annotations

from .diagram import CausalDiagram, _reach, require_valid


def project(diagram: CausalDiagram) -> CausalDiagram:
    """Project an arbitrary diagram onto its observed nodes."""
    require_valid(diagram)
    children, hidden = diagram._expanded()
    latent = diagram.latent | hidden
    obs = sorted(diagram.observed)

    def hits(start: str) -> set[str]:
        """Observed ends of the directed paths out of ``start`` whose
        interior nodes are all latent."""
        return _reach(children[start], lambda n: children[n] if n in latent else ()) - latent

    directed = set()
    for s in obs:
        for e in hits(s):
            if e != s:
                directed.add((s, e))

    # Any confounding pattern collapses to a latent fork once bidirected
    # edges are expanded: some latent root reaches both endpoints through
    # latent interiors.
    bidirected = set()
    for root in sorted(latent):
        reach = sorted(hits(root))
        for i, a in enumerate(reach):
            for b in reach[i + 1 :]:
                bidirected.add((a, b))

    return CausalDiagram(
        nodes=tuple(obs),
        observed=frozenset(obs),
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
    )
