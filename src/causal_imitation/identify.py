"""Causal-effect identification and exact formula evaluation.

Identification runs on the latent projection (a semi-Markovian diagram) and
follows the c-component factorization recursion; it returns an expression
tree over observational factors, or ``None`` when no formula exists.  The
conditional-plan identifier reduces a policy query to an atomic one over the
outcome's ancestors in the manipulated projection and attaches a policy
placeholder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .diagram import CausalDiagram, PolicySpace, _reach, mutilate, manipulated, require_valid_space
from .errors import TooLargeError, UnsupportedConditionalError
from .projection import project
from .scm import CONFIG_CAP, JointTable, Policy, broadcast_to_vars


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


def c_components(diagram: CausalDiagram) -> tuple[frozenset[str], ...]:
    """Partition of a semi-Markovian diagram by bidirected connectivity,
    ordered by smallest member."""
    if diagram.latent:
        raise ValueError("c-components are defined on semi-Markovian diagrams only")
    seen: set[str] = set()
    comps = []
    for start in diagram.nodes:
        if start not in seen:
            comp = frozenset(_reach({start}, diagram.siblings))
            seen |= comp
            comps.append(comp)
    return tuple(sorted(comps, key=min))


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


def _id(y: frozenset[str], x: frozenset[str], dist: _Dist, g: CausalDiagram,
        order: tuple[str, ...]) -> IdFormula:
    v = frozenset(g.nodes)
    if not x:
        return dist.marginal_expr(y)
    an = g.ancestors(y, inclusive=True)
    if v != an:
        return _id(y, x & an, dist.restricted(an), g.induced(an), order)
    w = (v - x) - mutilate(g, cut_incoming=x).ancestors(y, inclusive=True)
    if w:
        return _id(y, x | w, dist, g, order)
    comps = c_components(g.induced(v - x))
    if len(comps) > 1:
        bound = v - (y | x)
        terms = [_id(s, v - s, dist, g, order) for s in comps]
        return _sum(bound, _product(terms))
    s_comp = comps[0]
    g_comps = c_components(g)
    if len(g_comps) == 1:
        raise _NotIdentifiable
    pos = {n: i for i, n in enumerate(order)}

    def factorized(comp: frozenset[str]) -> IdFormula:
        """Product over comp of P(vi | its predecessors in the order)."""
        return _product([dist.conditional_expr(vi, frozenset(n for n in v if pos[n] < pos[vi]))
                         for vi in sorted(comp, key=pos.get)])

    if s_comp in g_comps:
        return _sum(s_comp - y, factorized(s_comp))
    for comp in g_comps:
        if s_comp < comp:
            new_dist = _Dist(tuple(n for n in order if n in comp), factorized(comp))
            return _id(y, x & comp, new_dist, g.induced(comp), order)
    raise AssertionError("single component of G - x not inside any component of G")


def _identify_projected(h: CausalDiagram, action: str,
                        outcome: frozenset[str]) -> IdFormula | None:
    """The identification of ``identify_atomic`` on a semi-Markovian
    diagram ``h`` (a latent projection).  The caller has checked that the
    action is observed and that the outcome is observed without it."""
    order = h.topological_order()
    try:
        formula = _id(outcome, frozenset({action}), _Dist(order, None), h, order)
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
    h_pi = manipulated(h, space)
    anc = h_pi.ancestors(outcome, inclusive=True)
    if space.action not in anc:
        # the action cannot reach the outcome: the policy is irrelevant
        return Factor(tuple(sorted(outcome)))
    zset = anc - {space.action} - outcome
    sub = _identify_projected(h, space.action, outcome | zset)
    if sub is None:
        return None
    placeholder = PolicyFactor(space.action, tuple(sorted(space.inputs)))
    return _sum({space.action} | zset, _product([sub, placeholder]))


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


def _eval(node: IdFormula, obs: JointTable, policy_axes, domains: Mapping[str, int]):
    """``(names, array)``: the node's value with one axis per free variable,
    sorted.  A batched table's leading axes stay in front of them, so a
    division by an empty cell of one table puts NaN in that table only."""
    if isinstance(node, Factor):
        need = tuple(sorted(set(node.vars) | set(node.given)))
        marg = obs.marginal(need)
        arr = marg.probs
        if node.given:
            den = obs.marginal(node.given)
            arr = _divide(arr, broadcast_to_vars(den.probs, den.variables, need))
        return need, arr
    if isinstance(node, PolicyFactor):
        if policy_axes is None:
            raise ValueError("formula contains a policy placeholder but no policy was supplied")
        return policy_axes
    if isinstance(node, Sum):
        vs, arr = _eval(node.body, obs, policy_axes, domains)
        # counted from the end, past any leading batch axes
        drop = tuple(i - len(vs) for i, v in enumerate(vs) if v in node.bound)
        scale = 1.0
        for b in node.bound:
            if b not in vs:
                # summing a constant function over the variable's domain
                if b not in domains:
                    raise ValueError(f"no domain known for bound variable {b!r}")
                scale *= domains[b]
        out = arr.sum(axis=drop) if drop else arr
        if scale != 1.0:
            out = out * scale
        return tuple(v for v in vs if v not in node.bound), out
    if isinstance(node, Product):
        vs: tuple[str, ...] = ()
        arr = np.asarray(1.0)
        for t in node.terms:
            tvs, tarr = _eval(t, obs, policy_axes, domains)
            union = tuple(sorted(set(vs) | set(tvs)))
            size = math.prod(domains[v] for v in union)
            if size > CONFIG_CAP:
                raise TooLargeError("formula evaluation exceeds the configuration cap")
            arr = broadcast_to_vars(arr, vs, union) * broadcast_to_vars(tarr, tvs, union)
            vs = union
        return vs, arr
    if isinstance(node, Quotient):
        nvs, narr = _eval(node.num, obs, policy_axes, domains)
        dvs, darr = _eval(node.den, obs, policy_axes, domains)
        union = tuple(sorted(set(nvs) | set(dvs)))
        return union, _divide(broadcast_to_vars(narr, nvs, union), broadcast_to_vars(darr, dvs, union))
    raise TypeError(f"not a formula: {node!r}")


def evaluate(
    formula: IdFormula,
    observational: JointTable,
    policy: Policy | None = None,
    fixed: Mapping[str, int] | None = None,
) -> JointTable:
    """Evaluate a formula against an exact observational table.

    ``fixed`` pins free variables (the do-value of an atomic formula, say).
    Pinning a known variable the formula does not mention is a no-op: an
    identified effect may be constant in the intervention value.  The result
    is a probability table over the remaining free variables and must total
    one; anything else raises, and a formula that divides by an empty cell
    of the table raises ``UnsupportedConditionalError``.
    """
    fixed = dict(fixed or {})
    domains = observational.domain_map()
    has_pi = has_policy_factor(formula)
    if has_pi and policy is None:
        raise ValueError("formula contains a policy placeholder; a policy is required")
    if policy is not None and not has_pi:
        raise ValueError("a policy was supplied but the formula has no placeholder")
    policy_axes = None
    if policy is not None:
        for z, k in zip(policy.inputs, policy.input_domains):
            if domains.get(z, k) != k:
                raise ValueError(f"policy input domain for {z} does not match the table")
            domains.setdefault(z, k)
        if domains.get(policy.action, policy.action_domain) != policy.action_domain:
            raise ValueError("policy action domain does not match the table")
        domains.setdefault(policy.action, policy.action_domain)
        policy_axes = _policy_array(policy)
    free = free_variables(formula)
    for v in list(fixed):
        if v not in free:
            if v in domains:
                del fixed[v]
            else:
                raise ValueError(f"fixed variable {v!r} is unknown")
    vs, arr = _eval(formula, observational, policy_axes, domains)
    if np.isnan(arr).any():
        raise UnsupportedConditionalError(
            f"conditioning event of probability zero in {format_formula(formula)}"
        )
    arr = np.broadcast_to(arr, tuple(domains[v] for v in vs))
    for v in sorted(fixed, key=vs.index, reverse=True):
        arr = np.take(arr, fixed[v], axis=vs.index(v))
        vs = tuple(u for u in vs if u != v)
    mass = float(arr.sum())
    if abs(mass - 1.0) > 1e-9:
        raise ValueError(
            f"evaluated table has mass {mass}; pin remaining do-variables via 'fixed'"
        )
    return JointTable(vs, tuple(domains[v] for v in vs), np.ascontiguousarray(arr, dtype=float))
