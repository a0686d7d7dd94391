"""Causal-effect identification: symbolic formulas over the observational
distribution.

Identification runs on the latent projection (a semi-Markovian diagram) and
follows the c-component factorization recursion; it returns an expression
tree over observational factors, or ``None`` when no formula exists.  The
conditional-plan identifier reduces a policy query to an atomic one over the
outcome's ancestors in the manipulated projection and attaches a policy
placeholder.  Formulas are evaluated against a table by ``scm.evaluate``;
this module does no numeric work.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .diagram import CausalDiagram, PolicySpace, _reach, require_valid_space
from .projection import project


# ---------------------------------------------------------------------------
# Formula expression tree


@dataclass(frozen=True)
class Factor:
    """Conditional P(vars | given) of the observational distribution."""

    vars: tuple[str, ...]
    given: tuple[str, ...] = ()


@dataclass(frozen=True)
class PolicyFactor:
    """Placeholder for pi(action | inputs)."""

    action: str
    inputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Sum:
    bound: tuple[str, ...]
    body: "IdFormula"


@dataclass(frozen=True)
class Product:
    terms: tuple["IdFormula", ...]


@dataclass(frozen=True)
class Quotient:
    num: "IdFormula"
    den: "IdFormula"


IdFormula = Union[Factor, PolicyFactor, Sum, Product, Quotient]


def free_variables(formula: IdFormula) -> frozenset[str]:
    if isinstance(formula, Factor):
        return frozenset(formula.vars) | frozenset(formula.given)
    if isinstance(formula, PolicyFactor):
        return frozenset({formula.action}) | frozenset(formula.inputs)
    if isinstance(formula, Sum):
        return free_variables(formula.body) - frozenset(formula.bound)
    if isinstance(formula, Product):
        out: frozenset[str] = frozenset()
        for t in formula.terms:
            out |= free_variables(t)
        return out
    if isinstance(formula, Quotient):
        return free_variables(formula.num) | free_variables(formula.den)
    raise TypeError(f"not a formula: {formula!r}")


def find_policy_factor(formula: IdFormula) -> PolicyFactor | None:
    """The first policy placeholder in the formula, or ``None``."""
    if isinstance(formula, PolicyFactor):
        return formula
    if isinstance(formula, Sum):
        return find_policy_factor(formula.body)
    if isinstance(formula, Product):
        for t in formula.terms:
            ph = find_policy_factor(t)
            if ph is not None:
                return ph
    if isinstance(formula, Quotient):
        return find_policy_factor(formula.num) or find_policy_factor(formula.den)
    return None


def has_policy_factor(formula: IdFormula) -> bool:
    return find_policy_factor(formula) is not None


def _sum(bound: Iterable[str], body: IdFormula) -> IdFormula:
    bs = tuple(sorted(bound))
    if not bs:
        return body
    return Sum(bs, body)


def _product(terms: Iterable[IdFormula]) -> IdFormula:
    flat: list[IdFormula] = []
    for t in terms:
        if isinstance(t, Product):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def format_formula(formula: IdFormula) -> str:
    """Deterministic, parenthesized rendering; shadowed bound variables are
    primed so every name in the output is unambiguous."""

    def fmt(node: IdFormula, ren: dict[str, str], used: frozenset[str]) -> str:
        if isinstance(node, Factor):
            vs = ",".join(ren.get(v, v) for v in node.vars)
            if node.given:
                return f"P({vs}|{','.join(ren.get(v, v) for v in node.given)})"
            return f"P({vs})"
        if isinstance(node, PolicyFactor):
            if node.inputs:
                return f"pi({ren.get(node.action, node.action)}|{','.join(ren.get(v, v) for v in node.inputs)})"
            return f"pi({ren.get(node.action, node.action)})"
        if isinstance(node, Sum):
            ren2 = dict(ren)
            names = []
            for b in node.bound:
                nb = b
                while nb in used:
                    nb += "'"
                if nb != b:
                    ren2[b] = nb
                elif b in ren2:
                    del ren2[b]
                used = used | {nb}
                names.append(nb)
            return f"sum_{{{','.join(names)}}} ({fmt(node.body, ren2, used)})"
        if isinstance(node, Product):
            return " * ".join(fmt(t, ren, used) for t in node.terms)
        if isinstance(node, Quotient):
            return f"({fmt(node.num, ren, used)} / {fmt(node.den, ren, used)})"
        raise TypeError(f"not a formula: {node!r}")

    return fmt(formula, {}, frozenset(free_variables(formula)))


# ---------------------------------------------------------------------------
# C-components


def _components(h: CausalDiagram, v: int) -> list[int]:
    """Masks of the bidirected components of ``h`` restricted to ``v``,
    ordered by smallest member."""
    comps, rest = [], v
    while rest:
        comps.append(_reach(rest & -rest, h._sib, ~v))
        rest &= ~comps[-1]
    return comps


def c_components(diagram: CausalDiagram) -> tuple[frozenset[str], ...]:
    """Partition of a semi-Markovian diagram by bidirected connectivity,
    ordered by smallest member."""
    if diagram.latent:
        raise ValueError("c-components are defined on semi-Markovian diagrams only")
    return tuple(map(diagram._names_of, _components(diagram, (1 << len(diagram.nodes)) - 1)))


# ---------------------------------------------------------------------------
# Atomic identification (c-component factorization recursion)


class _NotIdentifiable(Exception):
    pass


@dataclass(frozen=True)
class _Dist:
    """The distribution threaded through the recursion: a variable set plus
    either the raw observational joint (expr None) or a derived expression
    whose extra free variables ride along as parameters."""

    vars: tuple[str, ...]
    expr: IdFormula | None

    def restricted(self, keep: frozenset[str]) -> "_Dist":
        vs = tuple(v for v in self.vars if v in keep)
        if self.expr is None:
            return _Dist(vs, None)
        bound = [v for v in self.vars if v not in keep]
        return _Dist(vs, _sum(bound, self.expr))

    def marginal_expr(self, keep: frozenset[str]) -> IdFormula:
        if self.expr is None:
            return Factor(tuple(sorted(v for v in self.vars if v in keep)))
        return _sum([v for v in self.vars if v not in keep], self.expr)

    def conditional_expr(self, target: str, given: frozenset[str]) -> IdFormula:
        if self.expr is None:
            return Factor((target,), tuple(sorted(given)))
        num = _sum([v for v in self.vars if v != target and v not in given], self.expr)
        den = _sum([v for v in self.vars if v not in given], self.expr)
        return Quotient(num, den)


def _id(y: int, x: int, dist: _Dist, v: int, h: CausalDiagram, order: tuple[int, ...]) -> IdFormula:
    """The recursion on the subgraph of ``h`` induced by the mask ``v``;
    ``order`` is a topological order of ``h``'s bits."""
    names = h._names_of
    if not x:
        return dist.marginal_expr(names(y))
    an = _reach(y, h._pa, ~v)
    if v != an:
        return _id(y, x & an, dist.restricted(names(an)), an, h, order)
    # the nodes outside x that reach y only through x
    w = v & ~x & ~_reach(y, h._pa, ~v | x)
    if w:
        return _id(y, x | w, dist, v, h, order)
    comps = _components(h, v & ~x)
    if len(comps) > 1:
        terms = [_id(s, v & ~s, dist, v, h, order) for s in comps]
        return _sum(names(v & ~(y | x)), _product(terms))
    s_comp = comps[0]
    g_comps = _components(h, v)
    if len(g_comps) == 1:
        raise _NotIdentifiable

    def factorized(comp: int) -> IdFormula:
        """Product over comp of P(vi | its predecessors in the order)."""
        terms, prior = [], 0
        for i in order:
            if comp >> i & 1:
                terms.append(dist.conditional_expr(h._names[i], names(prior & v)))
            prior |= 1 << i
        return _product(terms)

    if s_comp in g_comps:
        return _sum(names(s_comp & ~y), factorized(s_comp))
    for comp in g_comps:
        if not s_comp & ~comp:
            new_dist = _Dist(tuple(h._names[i] for i in order if comp >> i & 1), factorized(comp))
            return _id(y, x & comp, new_dist, comp, h, order)
    raise AssertionError("single component of G - x not inside any component of G")


def _identify_projected(h: CausalDiagram, action: str,
                        outcome: frozenset[str]) -> IdFormula | None:
    """The identification of ``identify_atomic`` on a semi-Markovian
    diagram ``h`` (a latent projection).  The caller has checked that the
    action is observed and that the outcome is observed without it."""
    order = h.topological_order()
    try:
        formula = _id(h._mask(outcome), h._mask({action}), _Dist(order, None), (1 << len(order)) - 1, h,
                      tuple(h._bit[n] for n in order))
    except _NotIdentifiable:
        return None
    # the recursion may widen the do-set with variables the effect provably
    # does not depend on; averaging them under their observational weights
    # is exact and pins the free variables down to outcome plus the action
    extra = free_variables(formula) - outcome - {action}
    if extra:
        formula = _sum(extra, _product([Factor(tuple(sorted(extra))), formula]))
    return formula


def identify_atomic(diagram: CausalDiagram, action: str,
                    outcome: Iterable[str]) -> IdFormula | None:
    """Formula for P(outcome | do(action)) valid in every model of the
    diagram, or ``None``.  The action value stays a free variable."""
    outcome = frozenset(outcome)
    if not outcome <= diagram.observed:
        return None
    if action in outcome:
        raise ValueError("outcome must not contain the action")
    if action not in diagram.observed:
        raise ValueError(f"action {action!r} must be an observed node")
    return _identify_projected(project(diagram), action, outcome)


def identify_policy(diagram: CausalDiagram, space: PolicySpace,
                    outcome: Iterable[str]) -> IdFormula | None:
    """Formula for P(outcome | do(pi)) for every policy over the space, with
    a placeholder standing for pi, or ``None`` when not identifiable."""
    outcome = frozenset(outcome)
    require_valid_space(diagram, space)
    if space.action in outcome:
        raise ValueError("outcome must not contain the action")
    if not outcome <= diagram.observed:
        return None
    h = project(diagram)
    pa = list(h._pa)  # as in manipulated(h, space): the inputs are the action's parents
    pa[h._bit[space.action]] = h._mask(space.inputs)
    anc = h._names_of(_reach(h._mask(outcome), pa))
    if space.action not in anc:
        # the action cannot reach the outcome: the policy is irrelevant
        return Factor(tuple(sorted(outcome)))
    zset = anc - {space.action} - outcome
    sub = _identify_projected(h, space.action, outcome | zset)
    if sub is None:
        return None
    placeholder = PolicyFactor(space.action, tuple(sorted(space.inputs)))
    return _sum({space.action} | zset, _product([sub, placeholder]))
