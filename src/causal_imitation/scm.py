"""Exact discrete structural models with partial observability.

Every distribution in the project bottoms out here: joints are computed by
exhaustive enumeration over exogenous configurations, so fixtures double as
ground-truth oracles.  The enumeration is blocked and vectorized, and its
values are still exact: bit for bit those of a loop over single
configurations.  Mechanisms are stochastic tables (deterministic
functions are the 0/1 special case); bidirected edges in the diagram are
realized by shared exogenous variables.  Each type checks its invariants
in its constructor, so a model that ``intervene`` builds is checked too.
Each domain is stated once, as an axis of an array: ``JointTable`` and
``Policy`` read theirs off their arrays' trailing axes, ``DiscreteSCM``
reads each node's off its mechanism's last axis, and formula evaluation
reads each size off the arrays it multiplies.  A ``create`` factory only
sorts its arguments and sets their dtype.

Tables may carry leading batch axes: a batch of models over one diagram,
of their joints or of policies, one per index.  A batch is computed as
array operations that give each member the operations it would get alone,
in the same order, so its values are bit for bit those of the member on
its own; sums run only over the axes after the batch.

The numeric side of identification lives here too: ``evaluate`` computes
an ``identify`` formula against an exact or empirical table, or a batch
of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .diagram import (
    CausalDiagram,
    PolicySpace,
    _declarations,
    _read_text,
    manipulated,
    parse_diagram_text,
)
from .errors import ParseError, TooLargeError, UnsupportedConditionalError
from .identify import (
    Factor,
    IdFormula,
    PolicyFactor,
    Product,
    Quotient,
    Sum,
    find_policy_factor,
    format_formula,
    free_variables,
)

CONFIG_CAP = 10**7
_BLOCK_CELLS = 1 << 18
ROW_TOL = 1e-12
MASS_TOL = 1e-9


def broadcast_to_vars(arr: np.ndarray, axes: Sequence[str], target: Sequence[str]) -> np.ndarray:
    """View of ``arr`` (one axis per name in ``axes``) aligned to the sorted
    variable list ``target``; missing variables become broadcast axes.
    Leading batch axes before the named ones stay in front."""
    lead = arr.ndim - len(axes)
    perm = sorted(range(lead, arr.ndim), key=lambda i: axes[i - lead])
    arr = arr.transpose(*range(lead), *perm)
    names = [axes[i - lead] for i in perm]
    shape = []
    k = 0
    for t in target:
        if k < len(names) and names[k] == t:
            shape.append(arr.shape[lead + k])
            k += 1
        else:
            shape.append(1)
    if k != len(names):
        raise ValueError(f"axes {names} not contained in target {list(target)}")
    return arr.reshape(arr.shape[:lead] + tuple(shape))


def _batch_of(arr: np.ndarray, trailing: int) -> tuple[int, ...]:
    """The batch axes of ``arr``: those before the last ``trailing`` axes,
    which hold one table."""
    return arr.shape[:arr.ndim - trailing]


def _increasing(names: Sequence[str]) -> bool:
    """Whether ``names`` is sorted without repeats."""
    return all(a < b for a, b in zip(names, names[1:]))


@dataclass(frozen=True, eq=False)
class JointTable:
    """Exact probability table over a sorted tuple of discrete variables,
    one trailing axis of ``probs`` per variable.

    ``probs`` may carry leading batch axes, one table per index; each table
    is checked, and marginals and distances keep the batch axes."""

    variables: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        if not _increasing(self.variables):
            raise ValueError("variables must be sorted and distinct")
        if self.probs.ndim < len(self.variables):
            raise ValueError(f"probability table has {self.probs.ndim} axes for {len(self.variables)} variables")
        if (self.probs < -ROW_TOL).any():
            raise ValueError("negative probability")
        mass = self.probs.sum(axis=self._axes())
        bad = ~(np.abs(mass - 1.0) <= MASS_TOL)
        if bad.any():
            raise ValueError(f"table mass {float(mass[bad][0])} is not 1")
        self.probs.setflags(write=False)

    @property
    def domains(self) -> tuple[int, ...]:
        """The variables' domain sizes: the trailing axes of ``probs``."""
        return self.probs.shape[self.probs.ndim - len(self.variables):]

    @property
    def batch(self) -> tuple[int, ...]:
        """The leading batch axes; empty for a single table."""
        return _batch_of(self.probs, len(self.variables))

    def _axes(self) -> tuple[int, ...]:
        """The variables' axes, counted from the end."""
        return tuple(range(-len(self.variables), 0))

    def domain_map(self) -> dict[str, int]:
        return dict(zip(self.variables, self.domains))

    def marginal(self, keep: Iterable[str]) -> "JointTable":
        ks = frozenset(keep)
        unknown = ks - set(self.variables)
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        drop = tuple(i - len(self.variables) for i, v in enumerate(self.variables) if v not in ks)
        vs = tuple(v for v in self.variables if v in ks)
        return JointTable(vs, self.probs.sum(axis=drop) if drop else self.probs.copy())

    def expectation(self, var: str):
        """Mean of ``var``: a float, or an array of one per batch index."""
        m = self.marginal([var])
        mean = np.dot(m.probs, np.arange(m.domains[0]))
        return mean if mean.ndim else float(mean)

    def l1(self, other: "JointTable"):
        """L1 distance to ``other``: a float, or an array of one per batch
        index."""
        if self.variables != other.variables or self.domains != other.domains:
            raise ValueError("tables are over different variables")
        dist = np.abs(self.probs - other.probs).sum(axis=self._axes())
        return dist if dist.ndim else float(dist)


@dataclass(frozen=True, eq=False)
class Policy:
    """Conditional table pi(action | inputs) over discrete domains: one axis
    of ``probs`` per input, then the action's, with optional leading batch
    axes as in ``JointTable``."""

    action: str
    inputs: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        if not _increasing(self.inputs):
            raise ValueError("inputs must be sorted and distinct")
        if self.action in self.inputs:
            raise ValueError(f"action {self.action} cannot be its own input")
        if self.probs.ndim <= len(self.inputs):
            raise ValueError(f"policy table for {self.action} has too few axes")
        if _bad_rows(self.probs).any():
            raise ValueError(f"policy rows for {self.action} must be distributions")
        self.probs.setflags(write=False)

    @property
    def action_domain(self) -> int:
        return self.probs.shape[-1]

    @property
    def input_domains(self) -> tuple[int, ...]:
        return self.probs.shape[self.probs.ndim - 1 - len(self.inputs):-1]

    @staticmethod
    def create(action: str, probs: np.ndarray, inputs: Iterable[str] = ()) -> "Policy":
        ins = tuple(inputs)
        order = sorted(range(len(ins)), key=lambda i: ins[i])
        axes = range(-len(ins) - 1, -1)  # the input axes, counted from the end
        arr = np.ascontiguousarray(probs, dtype=float)
        if arr.ndim > len(ins):  # else the constructor refuses the table
            arr = np.moveaxis(arr, [axes[i] for i in order], axes)
        return Policy(action, tuple(ins[i] for i in order), arr)

    def space(self) -> PolicySpace:
        return PolicySpace.create(self.action, self.inputs)


def conditional_policy(observational: JointTable, action: str, inputs: Iterable[str]) -> Policy:
    """Behavior-cloning table P(action | inputs) read off an exact joint.

    Input configurations of probability zero get a uniform row; they are
    never reached under the same distribution.
    """
    ins = tuple(sorted(inputs))
    m = observational.marginal(ins + (action,))
    num = np.moveaxis(m.probs, m.variables.index(action) - len(m.variables), -1)
    den = num.sum(axis=-1, keepdims=True)
    safe = np.where(den > 0, den, 1.0)
    rows = np.where(den > 0, num / safe, 1.0 / num.shape[-1])
    return Policy(action, ins, np.ascontiguousarray(rows))


def _bad_rows(table: np.ndarray) -> np.ndarray:
    """Mask of the rows along the last axis that are not distributions: an
    entry below ``-ROW_TOL``, or a sum not within ``ROW_TOL`` of 1 (NaN
    included)."""
    return (table < -ROW_TOL).any(axis=-1) | ~(np.abs(table.sum(axis=-1) - 1.0) <= ROW_TOL)


@dataclass(frozen=True, eq=False)
class Mechanism:
    """Stochastic table for one endogenous node.

    ``table`` has one axis per endogenous parent (sorted), then one axis per
    attached exogenous variable (sorted), then the node's own domain; leading
    batch axes before them hold one table per model of a batch.
    """

    node: str
    parents: tuple[str, ...]
    exo: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        if not (_increasing(self.parents) and _increasing(self.exo)):
            raise ValueError("mechanism parents and exo names must be sorted and distinct")
        if self.table.ndim <= len(self.parents) + len(self.exo):
            raise ValueError(f"mechanism table for {self.node} has too few axes")
        if _bad_rows(self.table).any():
            raise ValueError(f"mechanism rows for {self.node} must be distributions")
        self.table.setflags(write=False)


@dataclass(frozen=True, eq=False)
class DiscreteSCM:
    """Diagram + exogenous distributions + per-node stochastic tables, one
    mechanism per diagram node in the diagram's order.  Each node's domain
    is its mechanism's last axis, and nowhere else.

    Tables with leading batch axes make a batch of models over one diagram;
    ``joint`` then gives a batched table."""

    diagram: CausalDiagram
    exogenous: tuple[tuple[str, np.ndarray], ...]
    mechanisms: tuple[Mechanism, ...]

    @staticmethod
    def create(
        diagram: CausalDiagram,
        exogenous: Mapping[str, Sequence[float]],
        mechanisms: Iterable[Mechanism],
    ) -> "DiscreteSCM":
        mechs = tuple(sorted(mechanisms, key=lambda m: m.node))
        exo = tuple((name, np.ascontiguousarray(p, dtype=float)) for name, p in sorted(exogenous.items()))
        return DiscreteSCM(diagram, exo, mechs)

    @property
    def domains(self) -> tuple[tuple[str, int], ...]:
        """``(node, size)`` per node, in order: each mechanism's last axis."""
        return tuple((m.node, m.table.shape[-1]) for m in self.mechanisms)

    @property
    def batch(self) -> tuple[int, ...]:
        """The batch axes every table broadcasts to: one model per index.
        A table without batch axes is shared by every model."""
        shapes = {_batch_of(p, 1) for _, p in self.exogenous}
        shapes |= {_batch_of(m.table, len(m.parents) + len(m.exo) + 1) for m in self.mechanisms}
        if len(shapes) == 1:
            return shapes.pop()
        try:
            return np.broadcast_shapes(*shapes)
        except ValueError:
            raise ValueError("model tables have batch axes that do not broadcast together") from None

    def __post_init__(self):
        if not _increasing([name for name, _ in self.exogenous]):
            raise ValueError("exogenous must be sorted by distinct name")
        nodes = tuple(m.node for m in self.mechanisms)
        if nodes != self.diagram.nodes:
            raise ValueError(f"mechanisms for {list(nodes)} are not one per diagram node in its order "
                             f"{list(self.diagram.nodes)}")
        dom = dict(self.domains)
        exo_dom = {}
        for name, probs in self.exogenous:
            if _bad_rows(probs).any():
                raise ValueError(f"exogenous {name} is not a distribution")
            if name in dom:
                raise ValueError(f"exogenous {name} clashes with an endogenous node")
            exo_dom[name] = probs.shape[-1]
        attached: dict[str, list[str]] = {name: [] for name in exo_dom}
        for m in self.mechanisms:
            if dom[m.node] < 2:
                raise ValueError(f"node {m.node} needs a domain of size >= 2")
            if m.parents != tuple(sorted(self.diagram.parents(m.node))):
                raise ValueError(f"mechanism for {m.node} does not match the diagram parents")
            for u in m.exo:
                if u not in exo_dom:
                    raise ValueError(f"mechanism for {m.node} references unknown exogenous {u}")
                attached[u].append(m.node)
            shape = tuple(dom[p] for p in m.parents) + tuple(exo_dom[u] for u in m.exo) + (dom[m.node],)
            if m.table.shape[m.table.ndim - len(shape):] != shape:
                raise ValueError(f"mechanism table for {m.node} has shape {m.table.shape}, expected {shape}")
        # shared exogenous parents must be licensed by declared bidirected edges
        for name, nodes in attached.items():
            for i, a in enumerate(nodes):
                for b in nodes[i + 1:]:
                    if ((a, b) if a <= b else (b, a)) not in self.diagram.bidirected:
                        raise ValueError(f"exogenous {name} confounds {a} and {b} but the diagram "
                                         "declares no bidirected edge between them")
        self.batch  # raises unless the tables' batch axes broadcast together


def joint(scm: DiscreteSCM) -> JointTable:
    """Exact joint over all endogenous nodes by exogenous enumeration.

    The exogenous configurations are enumerated in ``np.ndindex`` order over
    the sorted exogenous names, in blocks of at most ``_BLOCK_CELLS``
    configuration × endogenous cells, each block one broadcast product.
    Every cell still sees the operations of a loop over single
    configurations in the same order: the weight ``1.0 · p₁[u₁] · p₂[u₂] …``,
    times each mechanism in sorted node order, added to the running total
    configuration after configuration.  The values are therefore exact and
    bit-identical to that loop.  A configuration of weight zero, which the
    loop may skip, adds zeros here and changes no value.  A batch of models
    gives the batch of their joints, each with the same bits.
    """
    endo_vars = scm.diagram.nodes
    shape = tuple(m.table.shape[-1] for m in scm.mechanisms)
    endo_count = math.prod(shape)
    exo_dims = tuple(p.shape[-1] for _, p in scm.exogenous)
    exo_names = tuple(name for name, _ in scm.exogenous)
    n_configs = math.prod(exo_dims)
    if endo_count * max(1, n_configs) > CONFIG_CAP:
        raise TooLargeError("joint enumeration exceeds the configuration cap")
    # Each mechanism as (exo names, exo sizes, table): the endogenous axes are
    # aligned to endo_vars and the exogenous axes are folded into one last
    # axis, which a block indexes with its configurations.  "" names that
    # axis while aligning: it sorts first, and validation rejects empty node
    # names.
    factors = []
    for m in scm.mechanisms:
        k, e = len(m.parents), len(m.exo)
        lead = m.table.ndim - (k + e + 1)
        table = m.table.transpose(*range(lead), *range(lead + k, lead + k + e), *range(lead, lead + k),
                                  lead + k + e)
        table = table.reshape(table.shape[:lead] + (-1,) + table.shape[lead + e:])
        table = broadcast_to_vars(table, ("",) + m.parents + (m.node,), ("",) + endo_vars)
        factors.append((m.exo, m.table.shape[lead + k:lead + k + e],
                        table.transpose(*range(lead), *range(lead + 1, table.ndim), lead)))
    batch = scm.batch
    step = max(1, _BLOCK_CELLS // endo_count)
    total = np.zeros(batch + shape)
    for start in range(0, n_configs, step):
        configs = np.arange(start, min(start + step, n_configs))
        exo_value = dict(zip(exo_names, np.unravel_index(configs, exo_dims))) if exo_dims else {}
        weight = np.ones(len(configs))
        for name, probs in scm.exogenous:
            weight = weight * probs.take(exo_value[name], axis=-1)
        # configurations last while multiplying, so numpy's inner loops run
        # along them rather than along a short endogenous axis
        block = np.empty(batch + shape + (len(configs),))
        block[...] = weight.reshape(weight.shape[:-1] + (1,) * len(shape) + weight.shape[-1:])
        for exo, sizes, table in factors:
            if exo:
                table = table.take(np.ravel_multi_index(tuple(exo_value[u] for u in exo), sizes), axis=-1)
            block *= table
        # row 0 carries the running total; rows 1.. are this block's configurations
        acc = np.empty((len(configs) + 1,) + batch + shape)
        acc[0] = total
        acc[1:] = block.transpose(block.ndim - 1, *range(block.ndim - 1))
        # numpy reduces an outer axis row after row, but sums a lone reduced
        # axis (a one-cell table: no endogenous node, no batch) pairwise
        total = np.add.reduce(acc, axis=0) if total.size > 1 else np.add.accumulate(acc)[-1]
    return JointTable(endo_vars, total)


def observational(scm: DiscreteSCM) -> JointTable:
    """Marginal of the exact joint onto the observed nodes."""
    return joint(scm).marginal(scm.diagram.observed)


def intervene(scm: DiscreteSCM, policy: Policy) -> DiscreteSCM:
    """Submodel under a policy intervention.  An atomic do(X=x) is the
    policy with no inputs and a point mass at x."""
    new_mech = Mechanism(policy.action, policy.inputs, (), np.array(policy.probs))
    mechs = tuple(new_mech if m.node == policy.action else m for m in scm.mechanisms)
    return DiscreteSCM(manipulated(scm.diagram, policy.space()), scm.exogenous, mechs)


@dataclass(frozen=True, eq=False)
class Dataset:
    variables: tuple[str, ...]
    rows: np.ndarray


def sample(scm: DiscreteSCM, n: int, seed: int = 0) -> Dataset:
    """n i.i.d. rows over the observed nodes; deterministic given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    obs = observational(scm)
    rng = np.random.default_rng(seed)
    flat = obs.probs.reshape(-1)
    picks = rng.choice(flat.size, size=n, p=flat)
    rows = np.stack(np.unravel_index(picks, obs.domains), axis=1)
    return Dataset(obs.variables, rows)


def empirical_observational(scm: DiscreteSCM, n: int, seed) -> JointTable:
    """Empirical joint of n i.i.d. observed rows, drawn as multinomial counts.
    A batch of models takes a sequence of seeds, one per model."""
    if n < 1:
        raise ValueError("n must be >= 1")
    obs = observational(scm)
    cells = obs.probs.reshape((-1, math.prod(obs.domains)))
    seeds = seed if obs.batch else [seed]
    counts = np.stack([np.random.default_rng(s).multinomial(n, p) for s, p in zip(seeds, cells, strict=True)])
    return JointTable(obs.variables, counts.reshape(obs.probs.shape) / n)


# ---------------------------------------------------------------------------
# Random model generators


def random_frontdoor(seed) -> DiscreteSCM:
    """Random binary instance of the ``frontdoor_latent`` fixture, the
    mediator chain with an action/endpoint confounder: P(X=1), P(W=1 | X=x),
    P(S=1 | X=x, W=w) and P(Y=1 | S=s), drawn uniformly in that order.  A
    list of seeds gives the batch of their models, each drawn as it would be
    alone.

    The confounder is realized by a shared exogenous variable carrying the
    action's value, so the observational joint factorizes exactly as drawn.
    """
    from .experiments import frontdoor_instrument  # experiments imports this module

    # nine uniforms in one call are the draws above, bit for bit
    draws = (np.stack([np.random.default_rng(s).uniform(size=9) for s in seed]) if isinstance(seed, list)
             else np.random.default_rng(seed).uniform(size=9))
    p_x, p_w, p_y = draws[..., 0], draws[..., 1:3], draws[..., 7:]
    p_s = draws[..., 3:7].reshape(draws.shape[:-1] + (2, 2))

    def bern(p):
        return np.stack([1.0 - p, p], axis=-1)

    mechs = [
        # X copies the shared exogenous U so that P(U=1) = P(X=1)
        Mechanism("X", (), ("U",), np.array([[1.0, 0.0], [0.0, 1.0]])),
        Mechanism("W", ("X",), (), bern(p_w)),
        # S reads W and the confounder U (= the action value)
        Mechanism("S", ("W",), ("U",), bern(np.swapaxes(p_s, -1, -2))),
        Mechanism("Y", ("S",), (), bern(p_y)),
    ]
    return DiscreteSCM.create(frontdoor_instrument()[1], exogenous={"U": bern(p_x)}, mechanisms=mechs)


def random_scm(diagram: CausalDiagram, seed, domains: int = 2) -> DiscreteSCM:
    """Random stochastic model for a diagram: one binary exogenous variable
    per bidirected edge, plus uniformly drawn mechanism rows; every node
    takes ``domains`` values."""
    rng = np.random.default_rng(seed)
    exo: dict[str, np.ndarray] = {}
    attached: dict[str, list[str]] = {n: [] for n in diagram.nodes}
    for i, (a, b) in enumerate(sorted(diagram.bidirected)):
        name = f"U{i}"
        p = float(rng.uniform())
        exo[name] = np.array([1.0 - p, p])
        attached[a].append(name)
        attached[b].append(name)
    mechs = []
    for node in diagram.nodes:
        parents = tuple(sorted(diagram.parents(node)))
        exo_names = tuple(sorted(attached[node]))
        shape = (domains,) * len(parents) + (2,) * len(exo_names) + (domains,)
        raw = rng.uniform(size=shape) + 1e-9
        mechs.append(Mechanism(node, parents, exo_names, raw / raw.sum(axis=-1, keepdims=True)))
    return DiscreteSCM.create(diagram, exo, mechs)


# ---------------------------------------------------------------------------
# Text format

def format_scm(scm: DiscreteSCM, graph_filename: str) -> str:
    lines = [f"graph {graph_filename}"]
    for node, k in scm.domains:
        lines.append(f"domain {node} {k}")
    for name, probs in scm.exogenous:
        lines.append("exo " + name + "".join(f" {repr(float(p))}" for p in probs))
    for m in scm.mechanisms:
        lines.append(
            "mech " + m.node
            + " given" + "".join(" " + p for p in m.parents)
            + " exo" + "".join(" " + u for u in m.exo)
        )
        rows = m.table.reshape(-1, m.table.shape[-1])
        for row in rows:
            lines.append("  " + " ".join(repr(float(p)) for p in row))
    return "\n".join(lines) + "\n"


def parse_scm_text(text: str, diagram: CausalDiagram) -> DiscreteSCM:
    """Parse the fixture format given its diagram (the ``graph`` header, if
    any, must be the first declaration; the file-level loader resolves it).
    Each declaration owns the indented rows that follow it; only a ``mech``
    declaration takes rows."""
    domains: dict[str, int] = {}
    exogenous: dict[str, list[float]] = {}
    mechanisms: dict[str, Mechanism] = {}
    blocks: list[tuple[int, list[str], list[tuple[int, list[str]]]]] = []
    for lineno, indented, tokens in _declarations(text):
        if not indented:
            blocks.append((lineno, tokens, []))
        elif blocks:
            blocks[-1][2].append((lineno, tokens))
        else:
            raise ParseError("distribution row outside a mech block", lineno)
    for i, (lineno, tokens, rows) in enumerate(blocks):
        kind = tokens[0]
        if kind == "graph":
            if i:
                raise ParseError("'graph' must be the first declaration", lineno)
            if len(tokens) != 2:
                raise ParseError("expected 'graph <file>'", lineno)
        elif kind == "domain":
            if len(tokens) != 3:
                raise ParseError("expected 'domain <node> <k>'", lineno)
            if tokens[1] in domains:
                raise ParseError(f"duplicate domain for {tokens[1]}", lineno)
            if not diagram.has_node(tokens[1]):
                raise ParseError(f"node {tokens[1]} is not in the diagram", lineno)
            if not tokens[2].isdecimal() or int(tokens[2]) < 2:
                raise ParseError("domain size must be an integer >= 2", lineno)
            domains[tokens[1]] = int(tokens[2])
        elif kind == "exo":
            if len(tokens) < 3:
                raise ParseError("expected 'exo <name> <p...>'", lineno)
            if tokens[1] in exogenous:
                raise ParseError(f"duplicate exogenous {tokens[1]}", lineno)
            try:
                exogenous[tokens[1]] = [float(t) for t in tokens[2:]]
            except ValueError:
                raise ParseError("malformed exogenous probabilities", lineno) from None
            if _bad_rows(np.array(exogenous[tokens[1]])).any():
                raise ParseError(f"exogenous {tokens[1]} is not a distribution", lineno)
        elif kind == "mech":
            if "given" not in tokens or "exo" not in tokens:
                raise ParseError("expected 'mech <node> given <parents...> exo <names...>'", lineno)
            gi, ei = tokens.index("given"), tokens.index("exo")
            node = tokens[1]
            if node in mechanisms:
                raise ParseError(f"duplicate mechanism for {node}", lineno)
            parents = tuple(tokens[gi + 1:ei])
            exo = tuple(tokens[ei + 1:])
            for p in parents:
                if p not in domains:
                    raise ParseError(f"parent {p} has no domain declaration", lineno)
            for u in exo:
                if u not in exogenous:
                    raise ParseError(f"exogenous {u} is not declared", lineno)
            if node not in domains:
                raise ParseError(f"node {node} has no domain declaration", lineno)
            if not (_increasing(parents) and _increasing(exo)):
                raise ParseError("mechanism parents and exo names must be sorted and distinct", lineno)
            if parents != tuple(sorted(diagram.parents(node))):
                raise ParseError(f"mechanism for {node} does not match the diagram parents", lineno)
            dom_sizes = tuple(domains[p] for p in parents) + tuple(len(exogenous[u]) for u in exo)
            needed = math.prod(dom_sizes)
            values = []
            for row_line, row in rows:
                try:
                    values.append([float(t) for t in row])
                except ValueError:
                    raise ParseError("malformed probability row", row_line) from None
                if len(row) != domains[node]:
                    raise ParseError(f"expected {domains[node]} probabilities per row", row_line)
            if len(values) != needed:
                raise ParseError(f"mechanism for {node} expects {needed} rows, got {len(values)}", lineno)
            table = np.array(values, dtype=float)
            bad = np.flatnonzero(_bad_rows(table))
            if bad.size:
                raise ParseError(f"mechanism rows for {node} must be distributions", rows[bad[0]][0])
            mechanisms[node] = Mechanism(node, parents, exo, table.reshape(dom_sizes + (domains[node],)))
        else:
            raise ParseError(f"unknown declaration {kind!r}", lineno)
        if rows and kind != "mech":
            raise ParseError("distribution row outside a mech block", rows[0][0])
    try:
        return DiscreteSCM.create(diagram, exogenous, mechanisms.values())
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_scm_file(path) -> DiscreteSCM:
    """Load an SCM fixture file, resolving its ``graph`` header next to it."""
    p = Path(path)
    text = _read_text(p)
    header = next(_declarations(text), None)
    if header is None:
        raise ParseError("missing 'graph <file>' header")
    lineno, _indented, tokens = header
    if tokens[0] != "graph":
        raise ParseError("fixture must start with a 'graph <file>' header", lineno)
    if len(tokens) != 2:
        raise ParseError("expected 'graph <file>'", lineno)
    diagram, _space = parse_diagram_text(_read_text(p.parent / tokens[1]))
    return parse_scm_text(text, diagram)

# ---------------------------------------------------------------------------
# Exact evaluation


def _policy_array(policy: Policy) -> tuple[tuple[str, ...], np.ndarray]:
    axes = policy.inputs + (policy.action,)
    target = tuple(sorted(axes))
    return target, broadcast_to_vars(np.asarray(policy.probs), axes, target)


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` where ``den > 0``, NaN where it is not: a conditional on
    an empty cell is undefined.  The other cells have the bits of ``/``."""
    out = np.full(np.broadcast_shapes(num.shape, den.shape), np.nan)
    return np.divide(num, den, out=out, where=den > 0.0)


def _eval(node: IdFormula, obs: JointTable, policy_axes):
    """``(names, array)``: the node's value with one axis per free variable,
    sorted, each of its full size.  ``policy_axes`` is the ``(names, array)``
    the policy slot takes.  A batched table's leading axes stay in front of
    the named ones, so a division by an empty cell of one table puts NaN in
    that table only.  Every size is read off the arrays themselves."""
    if isinstance(node, Factor):
        need = tuple(sorted(set(node.vars) | set(node.given)))
        marg = obs.marginal(need)
        arr = marg.probs
        if node.given:
            den = obs.marginal(node.given)
            arr = _divide(arr, broadcast_to_vars(den.probs, den.variables, need))
        return need, arr
    if isinstance(node, PolicyFactor):
        return policy_axes
    if isinstance(node, Sum):
        vs, arr = _eval(node.body, obs, policy_axes)
        for b in node.bound:
            if b not in vs:
                raise ValueError(f"sum over {b!r}, which its body does not mention")
        # counted from the end, past any leading batch axes
        drop = tuple(i - len(vs) for i, v in enumerate(vs) if v in node.bound)
        return tuple(v for v in vs if v not in node.bound), arr.sum(axis=drop)
    if isinstance(node, Product):
        vs: tuple[str, ...] = ()
        arr = np.asarray(1.0)
        for t in node.terms:
            tvs, tarr = _eval(t, obs, policy_axes)
            union = tuple(sorted(set(vs) | set(tvs)))
            left, right = broadcast_to_vars(arr, vs, union), broadcast_to_vars(tarr, tvs, union)
            # one table's cells: each named axis has its size in one of the two
            size = math.prod(map(max, left.shape[left.ndim - len(union):], right.shape[right.ndim - len(union):]))
            if size > CONFIG_CAP:
                raise TooLargeError("formula evaluation exceeds the configuration cap")
            arr, vs = left * right, union
        return vs, arr
    if isinstance(node, Quotient):
        nvs, narr = _eval(node.num, obs, policy_axes)
        dvs, darr = _eval(node.den, obs, policy_axes)
        union = tuple(sorted(set(nvs) | set(dvs)))
        return union, _divide(broadcast_to_vars(narr, nvs, union), broadcast_to_vars(darr, dvs, union))
    raise TypeError(f"not a formula: {node!r}")


def evaluate(
    formula: IdFormula,
    observational: JointTable,
    policy: Policy | None = None,
    fixed: Mapping[str, int] | None = None,
) -> JointTable:
    """Evaluate a formula against an exact observational table, or a batch
    of them: each result has the bits of its table alone, and one failing
    table fails the call.

    ``fixed`` pins free variables of the table (the do-value of an atomic
    formula, say).  Pinning a variable the formula does not mention is a
    no-op: an identified effect may be constant in the intervention value.
    The result is a probability table over the remaining free variables
    and must total one; anything else raises, and a formula that divides by
    an empty cell of the table raises ``UnsupportedConditionalError``.  A
    policy must be over the placeholder's action, read only inputs the
    placeholder reads, and give the table's variables their table sizes.
    """
    fixed = dict(fixed or {})
    domains = observational.domain_map()
    ph = find_policy_factor(formula)
    if ph is not None and policy is None:
        raise ValueError("formula contains a policy placeholder; a policy is required")
    if policy is not None and ph is None:
        raise ValueError("a policy was supplied but the formula has no placeholder")
    policy_axes = None
    if policy is not None:
        if policy.action != ph.action or not set(policy.inputs) <= set(ph.inputs):
            raise ValueError(f"policy {format_formula(PolicyFactor(policy.action, policy.inputs))} does not "
                             f"fit the formula's placeholder {format_formula(ph)}")
        for z, k in zip(policy.inputs, policy.input_domains):
            if domains.get(z, k) != k:
                raise ValueError(f"policy input domain for {z} does not match the table")
        if domains.get(policy.action, policy.action_domain) != policy.action_domain:
            raise ValueError("policy action domain does not match the table")
        policy_axes = _policy_array(policy)
    free = free_variables(formula)
    for v, value in list(fixed.items()):
        if v not in domains:
            raise ValueError(f"fixed variable {v!r} is unknown")
        if not isinstance(value, (int, np.integer)) or not 0 <= value < domains[v]:
            raise ValueError(f"fixed value {value!r} of {v!r} is not in range({domains[v]})")
        if v not in free:
            del fixed[v]
    vs, arr = _eval(formula, observational, policy_axes)
    if np.isnan(arr).any():
        raise UnsupportedConditionalError(
            f"conditioning event of probability zero in {format_formula(formula)}"
        )
    # named axes counted from the end, past any leading batch axes
    for v in sorted(fixed, key=vs.index, reverse=True):
        arr = np.take(arr, fixed[v], axis=vs.index(v) - len(vs))
        vs = tuple(u for u in vs if u != v)
    mass = arr.sum(axis=tuple(range(-len(vs), 0)))
    bad = np.abs(mass - 1.0) > 1e-9
    if bad.any():
        raise ValueError(f"evaluated table has mass {float(mass[bad][0])}; pin remaining do-variables via 'fixed'")
    return JointTable(vs, np.ascontiguousarray(arr, dtype=float))
