"""Mixed causal graphs over named nodes.

A diagram has directed edges (cause -> effect) and bidirected edges
(a <-> b, standing for an unobserved common cause of a and b).  Nodes are
flagged observed or latent.  Everything here is immutable and pure; node
iteration order is lexicographic throughout so results are deterministic.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator

from .errors import ParseError

HAT_SUFFIX = "^"


def hat_name(action: str) -> str:
    """Name of the synthetic decision node attached to ``action``."""
    return action + HAT_SUFFIX


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class CausalDiagram:
    """Acyclic mixed graph with observed/latent node flags."""

    nodes: tuple[str, ...]
    observed: frozenset[str]
    directed: frozenset[tuple[str, str]]
    bidirected: frozenset[tuple[str, str]]

    @staticmethod
    def create(
        observed: Iterable[str],
        latent: Iterable[str] = (),
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
    ) -> "CausalDiagram":
        obs = frozenset(observed)
        lat = frozenset(latent)
        nodes = tuple(sorted(obs | lat))
        return CausalDiagram(
            nodes=nodes,
            observed=obs,
            directed=frozenset((a, b) for a, b in directed),
            bidirected=frozenset(_pair(a, b) for a, b in bidirected),
        )

    @property
    def latent(self) -> frozenset[str]:
        return frozenset(self.nodes) - self.observed

    @cached_property
    def _adjacency(self) -> dict[str, tuple[frozenset[str], frozenset[str], frozenset[str]]]:
        """Per node: (parents, children, siblings)."""
        out: dict[str, tuple[set[str], set[str], set[str]]] = {
            n: (set(), set(), set()) for n in self.nodes
        }
        for a, b in self.directed:
            if a in out and b in out:
                out[b][0].add(a)
                out[a][1].add(b)
        for a, b in self.bidirected:
            if a in out and b in out:
                out[a][2].add(b)
                out[b][2].add(a)
        # most nodes lack one of the three relations; sharing one empty set
        # keeps a diagram's cache about as small as a single relation's was
        empty: frozenset[str] = frozenset()
        return {n: tuple(frozenset(x) if x else empty for x in sets) for n, sets in out.items()}

    def parents(self, node: str) -> frozenset[str]:
        return self._adjacency[node][0]

    def children(self, node: str) -> frozenset[str]:
        return self._adjacency[node][1]

    def siblings(self, node: str) -> frozenset[str]:
        """Nodes joined to ``node`` by a bidirected edge."""
        return self._adjacency[node][2]

    def has_node(self, node: str) -> bool:
        return node in self._adjacency

    def _closure(self, seed: Iterable[str], step, inclusive: bool) -> frozenset[str]:
        seeds = frozenset(seed)
        for n in seeds:
            if not self.has_node(n):
                raise ValueError(f"unknown node {n!r}")
        if not inclusive:
            seeds = frozenset(m for n in seeds for m in step(n))
        return frozenset(_reach(seeds, step))

    def ancestors(self, seed: Iterable[str], inclusive: bool = True) -> frozenset[str]:
        return self._closure(seed, self.parents, inclusive)

    def descendants(self, seed: Iterable[str], inclusive: bool = True) -> frozenset[str]:
        return self._closure(seed, self.children, inclusive)

    def induced(self, keep: Iterable[str]) -> "CausalDiagram":
        """Subgraph on ``keep``; edges with an endpoint outside are dropped."""
        ks = frozenset(keep)
        return CausalDiagram(
            nodes=tuple(n for n in self.nodes if n in ks),
            observed=self.observed & ks,
            directed=frozenset(e for e in self.directed if e[0] in ks and e[1] in ks),
            bidirected=frozenset(e for e in self.bidirected if e[0] in ks and e[1] in ks),
        )

    def with_observed(self, extra: Iterable[str]) -> "CausalDiagram":
        """Copy with the given nodes flagged observed."""
        xs = frozenset(extra)
        unknown = xs - set(self.nodes)
        if unknown:
            raise ValueError(f"unknown nodes {sorted(unknown)}")
        return CausalDiagram(self.nodes, self.observed | xs, self.directed, self.bidirected)

    def topological_order(self) -> tuple[str, ...]:
        """Topological order of the directed part, lexicographic among ties."""
        indeg = {n: 0 for n in self.nodes}
        for a, b in self.directed:
            if a in indeg and b in indeg and a != b:
                indeg[b] += 1
        ready = [n for n in self.nodes if indeg[n] == 0]
        heapq.heapify(ready)
        out = []
        while ready:
            n = heapq.heappop(ready)
            out.append(n)
            for m in sorted(self.children(n)):
                indeg[m] -= 1
                if indeg[m] == 0:
                    heapq.heappush(ready, m)
        if len(out) != len(self.nodes):
            raise ValueError("directed part contains a cycle")
        return tuple(out)

    def _expanded(self) -> tuple[dict[str, frozenset[str]], frozenset[str]]:
        """DAG view where each bidirected edge becomes a fresh hidden fork.

        Returns (children map, hidden node names).  Hidden names cannot clash
        with declared nodes because they contain a space.
        """
        ch: dict[str, set[str]] = {n: set(self.children(n)) for n in self.nodes}
        hidden = set()
        for a, b in sorted(self.bidirected):
            h = f"{a} {b} <->"
            hidden.add(h)
            ch[h] = {a, b}
        return {n: frozenset(v) for n, v in ch.items()}, frozenset(hidden)


# ---------------------------------------------------------------------------
# Graph operations


def _reach(seeds: Iterable[str], step: Callable[[str], Iterable[str]],
           stop: Container[str] = ()) -> set[str]:
    """The seeds plus every node reached from them by repeated ``step``,
    never entering a node in ``stop``."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for m in step(stack.pop()):
            if m not in seen and m not in stop:
                seen.add(m)
                stack.append(m)
    return seen


def validate(diagram: CausalDiagram) -> list[str]:
    """Return every invariant violation; an empty list means the diagram is ok."""
    problems = []
    declared = set(diagram.nodes)
    if len(diagram.nodes) != len(declared):
        problems.append("duplicate node declaration")
    for n in diagram.nodes:
        if not n:
            problems.append("empty node name")
    for arrow, edges in (("->", diagram.directed), ("<->", diagram.bidirected)):
        for a, b in sorted(edges):
            for end in (a, b):
                if end not in declared:
                    problems.append(f"unknown node {end!r} in edge {a} {arrow} {b}")
            if a == b:
                problems.append(f"self-loop {a} {arrow} {b}")
    if not problems:
        try:
            diagram.topological_order()
        except ValueError:
            problems.append("cycle in directed edges")
    if not (diagram.observed <= declared):
        problems.append("observed flag on undeclared node")
    return problems


def require_valid(diagram: CausalDiagram) -> None:
    problems = validate(diagram)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))


def mutilate(
    diagram: CausalDiagram,
    cut_incoming: Iterable[str] = (),
    cut_outgoing: Iterable[str] = (),
) -> CausalDiagram:
    """Remove edges with an arrowhead into ``cut_incoming`` nodes and directed
    edges out of ``cut_outgoing`` nodes.

    Bidirected edges carry arrowheads at both ends, so those incident to a
    ``cut_incoming`` node are removed as well; ``cut_outgoing`` leaves them
    untouched.  The node set is unchanged.
    """
    inc = frozenset(cut_incoming)
    out = frozenset(cut_outgoing)
    for n in inc | out:
        if not diagram.has_node(n):
            raise ValueError(f"unknown node {n!r}")
    return CausalDiagram(
        nodes=diagram.nodes,
        observed=diagram.observed,
        directed=frozenset(
            (a, b) for a, b in diagram.directed if b not in inc and a not in out
        ),
        bidirected=frozenset(
            (a, b) for a, b in diagram.bidirected if a not in inc and b not in inc
        ),
    )


@dataclass(frozen=True)
class PolicySpace:
    """An action node plus the covariates its policies may read."""

    action: str
    inputs: frozenset[str]

    @staticmethod
    def create(action: str, inputs: Iterable[str] = ()) -> "PolicySpace":
        return PolicySpace(action, frozenset(inputs))


def validate_space(diagram: CausalDiagram, space: PolicySpace) -> list[str]:
    """Violations of the policy-space invariants against ``diagram``."""
    problems = []
    if not diagram.has_node(space.action):
        return [f"unknown action {space.action!r}"]
    if space.action not in diagram.observed:
        problems.append(f"action {space.action} is latent")
    for z in sorted(space.inputs):
        if not diagram.has_node(z):
            problems.append(f"unknown input {z!r}")
        elif z not in diagram.observed:
            problems.append(f"input {z} is latent")
    if space.action in space.inputs:
        problems.append("action cannot be its own input")
    forbidden = diagram.descendants({space.action}) & space.inputs
    for z in sorted(forbidden):
        problems.append(f"input {z} is a descendant of the action")
    return problems


def require_valid_space(diagram: CausalDiagram, space: PolicySpace) -> None:
    problems = validate_space(diagram, space)
    if problems:
        raise ValueError("invalid policy space: " + "; ".join(problems))


def augment_policy(diagram: CausalDiagram, space: PolicySpace) -> CausalDiagram:
    """Supergraph with input -> action edges added and a fresh observed
    decision node ``hat_name(action)`` pointing at the action."""
    require_valid_space(diagram, space)
    hat = hat_name(space.action)
    if diagram.has_node(hat):
        raise ValueError(f"node name {hat!r} is reserved for the decision node")
    directed = set(diagram.directed)
    directed.add((hat, space.action))
    directed.update((z, space.action) for z in space.inputs)
    return CausalDiagram(
        nodes=tuple(sorted(diagram.nodes + (hat,))),
        observed=diagram.observed | {hat},
        directed=frozenset(directed),
        bidirected=diagram.bidirected,
    )


def manipulated(diagram: CausalDiagram, space: PolicySpace) -> CausalDiagram:
    """Diagram of the policy-intervened model: incoming edges of the action
    are cut, then input -> action edges are added."""
    require_valid_space(diagram, space)
    cut = mutilate(diagram, cut_incoming={space.action})
    directed = set(cut.directed)
    directed.update((z, space.action) for z in space.inputs)
    return CausalDiagram(cut.nodes, cut.observed, frozenset(directed), cut.bidirected)


def _moral_adjacency(
    diagram: CausalDiagram, anchor: frozenset[str]
) -> dict[str, set[str]]:
    """Moralized undirected adjacency of the ancestral subgraph of ``anchor``.

    Bidirected edges are expanded to hidden forks first, so confounding is a
    two-step link through a hidden vertex plus a marriage of its endpoints.
    """
    children, _hidden = diagram._expanded()
    parents: dict[str, set[str]] = {}
    for p, chs in children.items():
        for c in chs:
            parents.setdefault(c, set()).add(p)
    anc = _reach(anchor, lambda n: parents.get(n, ()))
    adj: dict[str, set[str]] = {n: set() for n in anc}
    for n in anc:
        ps = [p for p in parents.get(n, ()) if p in anc]
        for p in ps:
            adj[n].add(p)
            adj[p].add(n)
        for i, p in enumerate(ps):
            for q in ps[i + 1 :]:
                adj[p].add(q)
                adj[q].add(p)
    return adj


def d_separated(
    diagram: CausalDiagram,
    a: Iterable[str],
    b: Iterable[str],
    c: Iterable[str] = (),
) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked given ``c``.

    Uses moralization of the ancestral subgraph, with bidirected edges read
    as hidden common causes.
    """
    aset, bset, cset = frozenset(a), frozenset(b), frozenset(c)
    for n in aset | bset | cset:
        if not diagram.has_node(n):
            raise ValueError(f"unknown node {n!r}")
    if aset & bset or aset & cset or bset & cset:
        raise ValueError("node sets must be disjoint")
    if not aset or not bset:
        return True
    adj = _moral_adjacency(diagram, aset | bset | cset)
    return not (_reach(aset, adj.__getitem__, cset) & bset)


# ---------------------------------------------------------------------------
# Text format

_OBS_WORDS = {"obs": True, "lat": False}


def _read_text(path) -> str:
    """An input file's text, decoded as UTF-8.  A byte that is not UTF-8
    becomes a lone surrogate, which ``_declarations`` refuses at its line."""
    return Path(path).read_text(encoding="utf-8", errors="surrogateescape")


def _declarations(text: str) -> Iterator[tuple[int, bool, list[str]]]:
    """The lexical rules every text format shares: ``(line number,
    indented, tokens)`` for each line that holds more than blanks and a
    ``#`` comment.  A line is indented when it starts with a space or a tab;
    only model files give that a meaning.  A line that holds a lone
    surrogate, a byte ``_read_text`` could not decode, is a parse error."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii() and any("\ud800" <= c <= "\udfff" for c in raw):
            raise ParseError("not UTF-8 text", lineno)
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, raw[0] in " \t", tokens


def parse_diagram_text(text: str) -> tuple[CausalDiagram, PolicySpace | None]:
    """Parse the one-declaration-per-line graph format.

    Lines: ``node <name> obs|lat``, ``edge <a> -> <b>``, ``edge <a> <-> <b>``,
    ``policy action <x> inputs <z...>``.  ``#`` starts a comment; order does
    not matter; duplicate declarations are errors.
    """
    observed: dict[str, bool] = {}
    directed: set[tuple[str, str]] = set()
    bidirected: set[tuple[str, str]] = set()
    space: PolicySpace | None = None
    for lineno, _indented, tokens in _declarations(text):
        kind = tokens[0]
        if kind == "node":
            if len(tokens) != 3 or tokens[2] not in _OBS_WORDS:
                raise ParseError("expected 'node <name> obs|lat'", lineno)
            name = tokens[1]
            if name in observed:
                raise ParseError(f"duplicate node {name!r}", lineno)
            observed[name] = _OBS_WORDS[tokens[2]]
        elif kind == "edge":
            if len(tokens) != 4 or tokens[2] not in ("->", "<->"):
                raise ParseError("expected 'edge <a> -> <b>' or 'edge <a> <-> <b>'", lineno)
            a, b = tokens[1], tokens[3]
            if tokens[2] == "->":
                if (a, b) in directed:
                    raise ParseError(f"duplicate edge {a} -> {b}", lineno)
                directed.add((a, b))
            else:
                if _pair(a, b) in bidirected:
                    raise ParseError(f"duplicate edge {a} <-> {b}", lineno)
                bidirected.add(_pair(a, b))
        elif kind == "policy":
            if space is not None:
                raise ParseError("duplicate policy declaration", lineno)
            if len(tokens) < 4 or tokens[1] != "action" or tokens[3] != "inputs":
                raise ParseError("expected 'policy action <x> inputs <z...>'", lineno)
            space = PolicySpace.create(tokens[2], tokens[4:])
        else:
            raise ParseError(f"unknown declaration {kind!r}", lineno)
    diagram = CausalDiagram(
        nodes=tuple(sorted(observed)),
        observed=frozenset(n for n, o in observed.items() if o),
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
    )
    problems = validate(diagram)
    if problems:
        raise ParseError("; ".join(problems))
    if space is not None:
        sp = validate_space(diagram, space)
        if sp:
            raise ParseError("; ".join(sp))
    return diagram, space


def format_diagram(diagram: CausalDiagram, space: PolicySpace | None = None) -> str:
    """Serialize to the text format, deterministically ordered."""
    lines = []
    for n in diagram.nodes:
        lines.append(f"node {n} {'obs' if n in diagram.observed else 'lat'}")
    for a, b in sorted(diagram.directed):
        lines.append(f"edge {a} -> {b}")
    for a, b in sorted(diagram.bidirected):
        lines.append(f"edge {a} <-> {b}")
    if space is not None:
        lines.append(
            "policy action " + space.action + " inputs"
            + "".join(" " + z for z in sorted(space.inputs))
        )
    return "\n".join(lines) + "\n"


def _format_nodes(nodes: Iterable[str]) -> str:
    """A node set as text: sorted names joined by spaces, ``-`` when empty."""
    return " ".join(sorted(nodes)) or "-"


def _format_instrument(surrogate: frozenset[str], subspace: PolicySpace) -> str:
    return f"surrogate {_format_nodes(surrogate)} subspace_inputs {_format_nodes(subspace.inputs)}"
