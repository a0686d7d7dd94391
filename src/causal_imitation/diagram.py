"""Mixed causal graphs over named nodes.

A diagram has directed edges (cause -> effect) and bidirected edges
(a <-> b, standing for an unobserved common cause of a and b).  Nodes are
flagged observed or latent.  Everything here is immutable and pure; node
iteration order is lexicographic throughout so results are deterministic.

Each diagram is indexed and checked once, in its constructor.  Bit ``i`` of
every mask is the ``i``-th node in sorted order, and each node holds its
parents, children and siblings as integer masks.  Every structural query is
one walk over masks, ``_reach``.  Where a query reads bidirected edges as
hidden common causes, the ``j``-th bidirected edge in sorted order becomes
a hidden fork at bit ``n + j``, past the ``n`` nodes, so no fork can clash
with a declared node.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import ParseError

HAT_SUFFIX = "^"
_INVALID = "invalid diagram: "


def hat_name(action: str) -> str:
    """Name of the synthetic decision node attached to ``action``."""
    return action + HAT_SUFFIX


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _bits(m: int) -> list[int]:
    """The positions of the set bits of ``m``, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _spread(m: int, step: Sequence[int]) -> int:
    """The union of ``step[i]`` over the bits ``i`` of ``m``."""
    out = 0
    while m:
        low = m & -m
        out |= step[low.bit_length() - 1]
        m ^= low
    return out


def _reach(seeds: int, step: Sequence[int], stop: int = 0) -> int:
    """The seeds plus every bit reached from them by repeated ``step``,
    never entering a bit of ``stop``."""
    seen = frontier = seeds
    while frontier:
        frontier = _spread(frontier, step) & ~seen & ~stop
        seen |= frontier
    return seen


@dataclass(frozen=True)
class CausalDiagram:
    """Acyclic mixed graph with observed/latent node flags; ``nodes`` is
    sorted and distinct."""

    nodes: tuple[str, ...]
    observed: frozenset[str]
    directed: frozenset[tuple[str, str]]
    bidirected: frozenset[tuple[str, str]]
    # the index: name -> bit, masks per bit, observed mask
    _bit: dict[str, int] = field(init=False, repr=False, compare=False)
    _pa: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _ch: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _sib: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _obs: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bit = {n: i for i, n in enumerate(self.nodes)}
        pa, sib = [0] * len(self.nodes), [0] * len(self.nodes)
        for a, b in self.directed:
            if a in bit and b in bit:
                pa[bit[b]] |= 1 << bit[a]
        for a, b in self.bidirected:
            if a in bit and b in bit:
                sib[bit[a]] |= 1 << bit[b]
                sib[bit[b]] |= 1 << bit[a]
        self._index(bit, tuple(pa), tuple(sib))
        problems = validate(self)
        if problems:
            raise ValueError(_INVALID + "; ".join(problems))

    def _index(self, bit: dict[str, int], pa: tuple[int, ...], sib: tuple[int, ...]) -> None:
        ch = [0] * len(pa)
        for i, m in enumerate(pa):
            for p in _bits(m):
                ch[p] |= 1 << i
        obs = sum(1 << bit[n] for n in self.observed if n in bit)
        for name, value in (("_bit", bit), ("_pa", pa), ("_ch", tuple(ch)),
                            ("_sib", sib), ("_obs", obs)):
            object.__setattr__(self, name, value)

    def _derive(self, pa: tuple[int, ...], sib: tuple[int, ...], observed: frozenset[str] | None = None,
                nodes: tuple[str, ...] | None = None) -> "CausalDiagram":
        """The acyclic diagram with the edges of ``pa`` and ``sib`` over this
        one's nodes or the sorted ``nodes``: indexed from the masks, not checked."""
        names, out = self.nodes if nodes is None else nodes, object.__new__(CausalDiagram)
        directed = self.directed if pa is self._pa else frozenset(
            (names[p], names[i]) for i, m in enumerate(pa) for p in _bits(m))
        bidirected = self.bidirected if sib is self._sib else frozenset(
            (names[i], names[j]) for i, m in enumerate(sib) for j in _bits(m >> i + 1 << i + 1))
        for name, value in (("nodes", names),
                            ("observed", self.observed if observed is None else observed),
                            ("directed", directed), ("bidirected", bidirected)):
            object.__setattr__(out, name, value)
        out._index(self._bit if nodes is None else {n: i for i, n in enumerate(nodes)}, pa, sib)
        return out

    @staticmethod
    def create(
        observed: Iterable[str],
        latent: Iterable[str] = (),
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
    ) -> "CausalDiagram":
        obs = frozenset(observed)
        return CausalDiagram(tuple(sorted(obs | frozenset(latent))), obs, frozenset((a, b) for a, b in directed),
                             frozenset(_pair(a, b) for a, b in bidirected))

    @property
    def latent(self) -> frozenset[str]:
        return frozenset(self.nodes) - self.observed

    def _mask(self, nodes: Iterable[str]) -> int:
        """The mask of ``nodes``; an unknown name is a ValueError."""
        m = 0
        for n in nodes:
            if n not in self._bit:
                raise ValueError(f"unknown node {n!r}")
            m |= 1 << self._bit[n]
        return m

    def _names_of(self, m: int) -> frozenset[str]:
        return frozenset([self.nodes[i] for i in _bits(m)])

    def _expanded(self) -> tuple[list[int], list[int]]:
        """Parent and child masks of the DAG in which each bidirected edge,
        in sorted order, is a hidden fork past the nodes."""
        pa, ch = list(self._pa), list(self._ch)
        for i, m in enumerate(self._sib):
            for j in _bits(m >> i + 1 << i + 1):
                fork = 1 << len(pa)
                pa[i], pa[j] = pa[i] | fork, pa[j] | fork
                pa.append(0)
                ch.append(1 << i | 1 << j)
        return pa, ch

    def parents(self, node: str) -> frozenset[str]:
        return self._names_of(self._pa[self._bit[node]])

    def siblings(self, node: str) -> frozenset[str]:
        """Nodes joined to ``node`` by a bidirected edge."""
        return self._names_of(self._sib[self._bit[node]])

    def has_node(self, node: str) -> bool:
        return node in self._bit

    def _closure(self, seed: Iterable[str], step: tuple[int, ...], inclusive: bool) -> frozenset[str]:
        seeds = self._mask(seed)
        if not inclusive:
            seeds = _spread(seeds, step)
        return self._names_of(_reach(seeds, step))

    def ancestors(self, seed: Iterable[str], inclusive: bool = True) -> frozenset[str]:
        return self._closure(seed, self._pa, inclusive)

    def descendants(self, seed: Iterable[str], inclusive: bool = True) -> frozenset[str]:
        return self._closure(seed, self._ch, inclusive)

    def with_observed(self, extra: Iterable[str]) -> "CausalDiagram":
        """Copy with the given nodes flagged observed."""
        xs = frozenset(extra)
        self._mask(sorted(xs))
        return self._derive(self._pa, self._sib, self.observed | xs)

    def topological_order(self) -> tuple[str, ...]:
        """Topological order of the directed part, lexicographic among ties."""
        out, done, todo = [], 0, list(range(len(self.nodes)))
        while todo:
            for k, i in enumerate(todo):
                if not self._pa[i] & ~done:
                    break
            else:
                raise ValueError("directed part contains a cycle")
            del todo[k]
            done |= 1 << i
            out.append(self.nodes[i])
        return tuple(out)


# ---------------------------------------------------------------------------
# Graph operations


def validate(diagram: CausalDiagram) -> list[str]:
    """Every invariant violation of the diagram's fields.  The constructor
    raises on any, so a diagram that exists gives an empty list."""
    problems = []
    declared = set(diagram.nodes)
    if any(a >= b for a, b in zip(diagram.nodes, diagram.nodes[1:])):
        problems.append("nodes must be sorted and distinct")
    for n in diagram.nodes:
        if not n:
            problems.append("empty node name")
    for arrow, edges in (("->", diagram.directed), ("<->", diagram.bidirected)):
        for a, b in sorted(e for e in edges if e[0] not in declared or e[1] not in declared or e[0] == e[1]):
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


def mutilate(diagram: CausalDiagram, cut_incoming: Iterable[str] = (),
             cut_outgoing: Iterable[str] = ()) -> CausalDiagram:
    """Remove edges with an arrowhead into ``cut_incoming`` nodes and directed
    edges out of ``cut_outgoing`` nodes.

    Bidirected edges carry arrowheads at both ends, so those incident to a
    ``cut_incoming`` node are removed as well; ``cut_outgoing`` leaves them
    untouched.  The node set is unchanged.
    """
    pa, sib = _cut(diagram, diagram._mask(cut_incoming), diagram._mask(cut_outgoing))
    return diagram._derive(tuple(pa), sib)


def _cut(diagram: CausalDiagram, inc: int, out: int) -> tuple[list[int], tuple[int, ...]]:
    """The parent and sibling masks of ``mutilate``."""
    pa = [0 if inc >> i & 1 else m & ~out for i, m in enumerate(diagram._pa)]
    if not inc:
        return pa, diagram._sib
    return pa, tuple(0 if inc >> i & 1 else m & ~inc for i, m in enumerate(diagram._sib))


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
    return CausalDiagram(tuple(sorted(diagram.nodes + (hat,))), diagram.observed | {hat},
                         diagram.directed | {(z, space.action) for z in space.inputs | {hat}}, diagram.bidirected)


def manipulated(diagram: CausalDiagram, space: PolicySpace) -> CausalDiagram:
    """Diagram of the policy-intervened model: incoming edges of the action
    are cut, then input -> action edges are added."""
    require_valid_space(diagram, space)
    a = diagram._bit[space.action]
    pa, sib = _cut(diagram, 1 << a, 0)
    pa[a] = diagram._mask(space.inputs)
    return diagram._derive(tuple(pa), sib)


def _moral_adjacency(diagram: CausalDiagram, anchor: int) -> tuple[int, list[int]]:
    """The ancestral set of ``anchor`` and the moralized undirected
    adjacency of its subgraph, as masks.

    Bidirected edges are expanded to hidden forks first, so confounding is a
    two-step link through a hidden vertex plus a marriage of its endpoints.
    """
    pa = diagram._expanded()[0]
    anc = _reach(anchor, pa)
    adj = [0] * len(pa)
    for i in _bits(anc):
        adj[i] |= pa[i]
        for p in _bits(pa[i]):
            adj[p] |= pa[i] | 1 << i
    return anc, adj


def d_separated(diagram: CausalDiagram, a: Iterable[str], b: Iterable[str], c: Iterable[str] = ()) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked given ``c``.

    Uses moralization of the ancestral subgraph, with bidirected edges read
    as hidden common causes.
    """
    am, bm, cm = diagram._mask(a), diagram._mask(b), diagram._mask(c)
    if am & bm or am & cm or bm & cm:
        raise ValueError("node sets must be disjoint")
    if not am or not bm:
        return True
    _anc, adj = _moral_adjacency(diagram, am | bm | cm)
    return not _reach(am, adj, cm) & bm
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
    try:
        diagram = CausalDiagram(
            nodes=tuple(sorted(observed)),
            observed=frozenset(n for n, o in observed.items() if o),
            directed=frozenset(directed),
            bidirected=frozenset(bidirected),
        )
    except ValueError as exc:
        raise ParseError(str(exc).removeprefix(_INVALID)) from None
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
