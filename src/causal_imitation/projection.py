"""Latent projection onto the observed nodes.

The projection keeps every observed node, adds a -> b when a reaches b
through latent nodes only, and adds a <-> b when a latent-only structure
(a direct bidirected edge, a bidirected edge between latent chains, or a
latent common-cause fork) confounds the pair.  The result is
semi-Markovian: every node observed.
"""
from __future__ import annotations

from .diagram import CausalDiagram, _bits, _reach


def project(diagram: CausalDiagram) -> CausalDiagram:
    """Project an arbitrary diagram onto its observed nodes."""
    _pa, children = diagram._expanded()
    obs = diagram._obs
    latent = (1 << len(children)) - 1 & ~obs  # latent nodes and hidden forks
    through = [m if latent >> i & 1 else 0 for i, m in enumerate(children)]
    kept = _bits(obs)
    rank = {i: k for k, i in enumerate(kept)}

    def hits(start: int) -> int:
        """Observed ends, as a mask over the projection's nodes, of the
        directed paths out of ``start`` whose interior nodes are all latent."""
        out = 0
        for i in _bits(_reach(children[start], through) & obs):
            out |= 1 << rank[i]
        return out

    pa, sib = [0] * len(kept), [0] * len(kept)
    for k, s in enumerate(kept):
        for e in _bits(hits(s)):
            pa[e] |= 1 << k
    # Any confounding pattern collapses to a latent fork once bidirected
    # edges are expanded: some latent root reaches both endpoints through
    # latent interiors.
    for root in _bits(latent):
        ends = hits(root)
        for e in _bits(ends):
            sib[e] |= ends & ~(1 << e)
    nodes = tuple(diagram.nodes[i] for i in kept)
    return diagram._derive(tuple(pa), tuple(sib), frozenset(nodes), nodes)
