"""Independent brute-force oracles the implementation is checked against.

Nothing here shares code with the production algorithms: separation,
ancestry and latent projection are decided by enumerating paths,
c-components by merging blocks pairwise, policy effects by direct summation
over every configuration, the exact joint one exogenous configuration at a
time (with only the axis-alignment helper ``broadcast_to_vars`` borrowed),
enumerators by filtering all subsets, and surrogates and instruments from
the paper's definitions.  ``do`` builds an atomic intervention from the
library's policy intervention.  The frontdoor study is checked against a
loop over its instances, one library call per instance, and the policy
solve against the solve by linear programming alone, with and without the
tie-break LP's skip.
"""
from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np
from scipy.optimize import linprog as linprog_scipy  # the public LP solver imitate.linprog must match

from causal_imitation.diagram import CausalDiagram, PolicySpace, augment_policy, d_separated, hat_name
from causal_imitation.errors import TooLargeError
from causal_imitation.identify import find_policy_factor, free_variables, identify_policy
from causal_imitation.imitate import (
    _l1_to_expert,
    _linear_system,
    _lp_closest,
    _lp_min_residual,
    _matching_system,
    _rounded,
    _sampled_tolerance,
    solve_policy,
)
from causal_imitation.scm import (
    CONFIG_CAP,
    DiscreteSCM,
    JointTable,
    Policy,
    _eval,
    broadcast_to_vars,
    conditional_policy,
    empirical_observational,
    intervene,
    joint,
    random_frontdoor,
)


def subsets(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def d_separated_paths(diagram: CausalDiagram, a_set, b_set, c_set) -> bool:
    """Path-enumeration d-separation: search for one active path.  An(C),
    which opens colliders, comes from ``brute_ancestors``, not from the
    library's reachability walk."""
    a_set, b_set, c_set = frozenset(a_set), frozenset(b_set), frozenset(c_set)
    anc_c = brute_ancestors(diagram, c_set)
    adj: dict[str, list[tuple[str, bool, bool]]] = {n: [] for n in diagram.nodes}
    for u, v in diagram.directed:
        adj[u].append((v, False, True))   # leaving u at the tail, head at v
        adj[v].append((u, True, False))
    for u, v in diagram.bidirected:
        adj[u].append((v, True, True))
        adj[v].append((u, True, True))

    def active_from(node, in_head, visited) -> bool:
        for nxt, out_head, head_at_next in adj[node]:
            if nxt in visited:
                continue
            if in_head is not None:  # `node` is an interior vertex of the path
                if in_head and out_head:
                    if node not in anc_c:  # collider outside An(C) blocks
                        continue
                elif node in c_set:  # conditioned non-collider blocks
                    continue
            if nxt in b_set:
                return True
            if active_from(nxt, head_at_next, visited | {nxt}):
                return True
        return False

    return not any(active_from(a, None, frozenset({a})) for a in sorted(a_set))


def directed_paths(diagram: CausalDiagram, start: str) -> list[tuple[str, ...]]:
    """Every directed path out of ``start``, the one-node path included."""
    out = [(start,)]
    for a, b in sorted(diagram.directed):
        if a == start:
            out += [(start,) + p for p in directed_paths(diagram, b)]
    return out


def brute_ancestors(diagram: CausalDiagram, seed, inclusive=True) -> frozenset[str]:
    seed = frozenset(seed)
    return frozenset(n for n in diagram.nodes for p in directed_paths(diagram, n)
                     if p[-1] in seed and (inclusive or len(p) > 1))


def brute_descendants(diagram: CausalDiagram, seed, inclusive=True) -> frozenset[str]:
    return frozenset(p[-1] for s in seed for p in directed_paths(diagram, s)
                     if inclusive or len(p) > 1)


def brute_c_components(diagram: CausalDiagram) -> tuple[frozenset[str], ...]:
    """Singletons merged two at a time across bidirected edges until no
    bidirected edge joins two blocks."""
    blocks = [frozenset({n}) for n in diagram.nodes]
    merged = True
    while merged:
        merged = False
        for i, j in combinations(range(len(blocks)), 2):
            if any({a, b} & blocks[i] and {a, b} & blocks[j] for a, b in diagram.bidirected):
                blocks[i] |= blocks.pop(j)
                merged = True
                break
    return tuple(sorted(blocks, key=min))


def brute_project(diagram: CausalDiagram) -> CausalDiagram:
    """Latent projection from its definition: a -> b for a directed path
    from a to b with latent interior; a <-> b when a latent node has such
    paths to both, or a bidirected edge joins two nodes that are a and b or
    reach them by such paths."""
    latent = diagram.latent

    def hits(start):
        return {p[-1] for p in directed_paths(diagram, start)
                if len(p) > 1 and p[-1] not in latent and all(n in latent for n in p[1:-1])}

    def stands_for(end):
        return hits(end) if end in latent else {end}

    obs = sorted(diagram.observed)
    directed = {(a, b) for a in obs for b in hits(a)}
    forks = [(hits(r), hits(r)) for r in latent]
    forks += [(stands_for(u), stands_for(w)) for u, w in diagram.bidirected]
    bidirected = {(min(a, b), max(a, b)) for left, right in forks
                  for a in left for b in right if a != b}
    return CausalDiagram(tuple(obs), frozenset(obs), frozenset(directed), frozenset(bidirected))


def brute_min_separators(diagram, a, b, restrict) -> list[frozenset]:
    candidates = frozenset(restrict) - {a, b}
    seps = [frozenset(s) for s in subsets(candidates)
            if d_separated(diagram, {a}, {b}, s)]
    minimal = [s for s in seps if not any(t < s for t in seps)]
    return sorted(minimal, key=lambda s: tuple(sorted(s)))


def brute_id_subspaces(diagram, space: PolicySpace, outcome) -> list[frozenset]:
    out = []
    for s in subsets(space.inputs):
        if identify_policy(diagram, PolicySpace(space.action, frozenset(s)), outcome) is not None:
            out.append(frozenset(s))
    return sorted(out, key=lambda s: tuple(sorted(s)))


def is_surrogate(diagram: CausalDiagram, space: PolicySpace, reward: str, surrogate) -> bool:
    """The paper's surrogate: an observed set that screens the reward off
    from the decision node in the policy-augmented diagram.  A set holding
    the (observed) reward itself trivially qualifies."""
    s = frozenset(surrogate)
    unknown = {n for n in s | {reward} if not diagram.has_node(n)}
    if unknown:
        raise ValueError(f"unknown nodes {sorted(unknown)}")
    if not s <= diagram.observed:
        raise ValueError("surrogate sets must be observed")
    if reward in s:
        return True
    aug = augment_policy(diagram, space)
    return d_separated_paths(aug, {hat_name(space.action)}, {reward}, s)


def is_instrument(diagram: CausalDiagram, space: PolicySpace, reward: str, surrogate,
                  subspace: PolicySpace) -> bool:
    """The paper's instrument: a surrogate for a subspace of ``space``
    whose interventional distribution is identifiable over that subspace."""
    if subspace.action != space.action or not subspace.inputs <= space.inputs:
        raise ValueError("subspace must share the action and restrict the inputs")
    s = frozenset(surrogate)
    return is_surrogate(diagram, subspace, reward, s) and identify_policy(diagram, subspace, s) is not None


def do(scm: DiscreteSCM, node: str, value: int) -> DiscreteSCM:
    """The atomic intervention do(node=value): the policy with no inputs
    and a point mass at ``value``."""
    probs = np.zeros(dict(scm.domains)[node])
    probs[value] = 1.0
    return intervene(scm, Policy.create(node, probs))


def joint_enumeration(scm: DiscreteSCM) -> JointTable:
    """Exact joint over all endogenous nodes, one exogenous configuration at
    a time: the loop that ``scm.joint`` vectorizes, kept as its reference."""
    dom = dict(scm.domains)
    endo_vars = tuple(sorted(scm.diagram.nodes))
    endo_count = math.prod(dom[v] for v in endo_vars)
    exo_dims = tuple(len(p) for _, p in scm.exogenous)
    exo_names = tuple(name for name, _ in scm.exogenous)
    if endo_count * max(1, math.prod(exo_dims)) > CONFIG_CAP:
        raise TooLargeError("joint enumeration exceeds the configuration cap")
    shape = tuple(dom[v] for v in endo_vars)
    total = np.zeros(shape)
    mechs = {m.node: m for m in scm.mechanisms}
    for exo_config in np.ndindex(*exo_dims) if exo_dims else [()]:
        weight = 1.0
        for (name, probs), value in zip(scm.exogenous, exo_config):
            weight *= float(probs[value])
        if weight == 0.0:
            continue
        acc = np.full(shape, weight)
        exo_value = dict(zip(exo_names, exo_config))
        for node in endo_vars:
            m = mechs[node]
            sl = m.table[(slice(None),) * len(m.parents) + tuple(exo_value[u] for u in m.exo)]
            acc = acc * broadcast_to_vars(sl, m.parents + (node,), endo_vars)
        total += acc
    return JointTable(endo_vars, total)


def linear_system_by_basis(formula, observational: JointTable):
    """Coefficients A[s, pa, x] and target t[s] of the policy formula's
    affine system, one evaluation per one-hot policy: the loop that
    ``imitate._linear_system`` replaces by a single evaluation."""
    ph = find_policy_factor(formula)
    if ph is None:
        raise ValueError("formula has no policy placeholder")
    svars = tuple(sorted(free_variables(formula)))
    domains = observational.domain_map()
    in_doms = tuple(domains[z] for z in ph.inputs)
    k = domains[ph.action]
    n_pa = math.prod(in_doms) if in_doms else 1
    n_s = math.prod(domains[v] for v in svars) if svars else 1
    target_names = tuple(sorted(ph.inputs + (ph.action,)))
    coeff = np.zeros((n_s, n_pa, k))
    for pa_i in range(n_pa):
        pa_config = np.unravel_index(pa_i, in_doms) if in_doms else ()
        for x in range(k):
            basis = np.zeros(in_doms + (k,))
            basis[tuple(pa_config) + (x,)] = 1.0
            axes = (target_names, broadcast_to_vars(basis, ph.inputs + (ph.action,), target_names))
            vs, arr = _eval(formula, observational, axes)
            arr = np.broadcast_to(arr, tuple(domains[v] for v in vs))
            coeff[:, pa_i, x] = arr.reshape(-1)
    t = observational.marginal(svars).probs.reshape(-1)
    return coeff, t, ph, in_doms, k


def policy_joint_enumeration(scm: DiscreteSCM, policy: Policy) -> JointTable:
    """P(v | do(pi)) summed configuration by configuration: the exogenous
    prior times every non-action mechanism times the policy row."""
    dom = dict(scm.domains)
    variables = tuple(sorted(dom))
    shape = tuple(dom[v] for v in variables)
    exo_names = [name for name, _ in scm.exogenous]
    exo_probs = {name: p for name, p in scm.exogenous}
    exo_dims = tuple(len(exo_probs[u]) for u in exo_names)
    mechs = {m.node: m for m in scm.mechanisms}
    out = np.zeros(shape)
    for u_conf in np.ndindex(*exo_dims) if exo_dims else [()]:
        u_val = dict(zip(exo_names, u_conf))
        pu = 1.0
        for name in exo_names:
            pu *= float(exo_probs[name][u_val[name]])
        for v_conf in np.ndindex(*shape):
            v_val = dict(zip(variables, v_conf))
            p = pu
            for node in variables:
                if node == policy.action:
                    idx = tuple(v_val[z] for z in policy.inputs) + (v_val[node],)
                    p *= float(policy.probs[idx])
                else:
                    m = mechs[node]
                    idx = tuple(v_val[q] for q in m.parents) + tuple(u_val[u] for u in m.exo) \
                        + (v_val[node],)
                    p *= float(m.table[idx])
                if p == 0.0:
                    break
            out[v_conf] += p
    return JointTable(variables, out)


def conditionally_independent(table: JointTable, a_set, b_set, c_set, tol=1e-9) -> bool:
    """P(a,b|c) = P(a|c) P(b|c) wherever P(c) > 0, checked without division:
    P(a,b,c) P(c) = P(a,c) P(b,c)."""
    a_set, b_set, c_set = sorted(a_set), sorted(b_set), sorted(c_set)
    abc = table.marginal(a_set + b_set + c_set)
    ac = table.marginal(a_set + c_set)
    bc = table.marginal(b_set + c_set)
    c = table.marginal(c_set)

    def at(t: JointTable, val) -> float:
        return float(t.probs[tuple(val[v] for v in t.variables)])

    for conf in np.ndindex(*abc.domains):
        val = dict(zip(abc.variables, conf))
        lhs = abc.probs[conf] * at(c, val)
        rhs = at(ac, val) * at(bc, val)
        if abs(lhs - rhs) > tol:
            return False
    return True


def random_diagram(rng: np.random.Generator, n_nodes: int, p_dir=0.35, p_bi=0.2,
                   latent_fraction=0.0) -> CausalDiagram:
    names = [chr(ord("A") + i) for i in range(n_nodes)]
    order = list(names)
    rng.shuffle(order)
    directed = []
    bidirected = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.uniform() < p_dir:
                directed.append((order[i], order[j]))
            if rng.uniform() < p_bi:
                bidirected.append((order[i], order[j]))
    latent = {n for n in names if rng.uniform() < latent_fraction}
    return CausalDiagram.create(
        observed=[n for n in names if n not in latent],
        latent=latent, directed=directed, bidirected=bidirected,
    )


def solve_policy_by_lp(formula, observational: JointTable, tolerance: float, skip: bool = True):
    """``imitate.solve_policy`` by linear programming alone, as it was before
    it solved pinned systems in closed form: the residual LP, then the
    tie-break LP.  With ``skip``, the tie-break LP is skipped where the
    residual LP matches the system to 1e-9 and the matching and simplex rows
    have full column rank by ``np.linalg.matrix_rank``; without it, every
    feasible system runs that LP, also when the exact system admits one
    policy only.  A batched table gives a list of pairs, one per table; a
    table on which the formula divides by an empty cell gives ``(None, None)``."""
    coeff, t, ph, in_doms, k = _linear_system(formula, observational)
    n_s, n_pa = t.shape[-1], coeff.shape[-2]
    n_pi = n_pa * k
    refs = conditional_policy(observational, ph.action, ph.inputs).probs.reshape(-1, n_pi)

    def as_policy(raw: np.ndarray) -> Policy:
        return Policy(ph.action, ph.inputs, _rounded(raw, k).reshape(in_doms + (k,)))

    def solve(a2, t, ref):
        m, b = _matching_system(a2, t, n_pa, k)

        def exact_residual(policy: Policy) -> float:
            return float(np.abs(a2 @ np.asarray(policy.probs).reshape(-1) - t).sum())

        raw, objective = _lp_min_residual(m, b, n_pi)
        best = as_policy(raw)
        best_res = exact_residual(best)
        if best_res > tolerance:
            return None, best_res
        if skip and best_res <= 1e-9 and np.linalg.matrix_rank(m[:, :n_pi]) == n_pi:
            return best, best_res
        cap = 0.0 if best_res <= 1e-9 else max(objective, best_res) + 1e-10
        raw2 = _lp_closest(m, b, n_pi, ref, cap)
        if raw2 is not None:
            cand = as_policy(raw2)
            cand_res = exact_residual(cand)
            if cand_res <= max(tolerance, best_res):
                return cand, cand_res
        return best, best_res

    pairs = [(None, None) if np.isnan(a2).any() else solve(a2, t1, ref)
             for a2, t1, ref in zip(coeff.reshape(-1, n_s, n_pi), t.reshape(-1, n_s), refs)]
    return pairs if observational.batch else pairs[0]


def frontdoor_instance(formula, base_seed: int, index: int, samples: int):
    """One instance of ``experiments.frontdoor_study``, with one library
    call per step: ``(p_imitable, l1_ci or None, l1_bc)``."""

    def solve(table, tolerance):
        policy, _residual, found = solve_policy(formula, table, tolerance)
        return policy if found else None

    scm_i = random_frontdoor(np.random.SeedSequence(entropy=base_seed, spawn_key=(index,)))
    full = joint(scm_i)
    exact = full.marginal(scm_i.diagram.observed)
    expert = full.marginal(("Y",))
    exact_solution = solve(exact, 1e-9)
    if samples:
        table = empirical_observational(
            scm_i, samples, np.random.SeedSequence(entropy=base_seed, spawn_key=(index, 1))
        )
        solved = solve(table, _sampled_tolerance(samples))
    else:
        table, solved = exact, exact_solution
    l1_ci = None if solved is None else _l1_to_expert(scm_i, expert, solved)
    l1_bc = _l1_to_expert(scm_i, expert, conditional_policy(table, "X", ()))
    return exact_solution is not None, l1_ci, l1_bc


def frontdoor_study_loop(formula, models: int, samples: int, seed: int) -> str:
    """The report of ``experiments.frontdoor_study``, one instance at a time."""
    rows = [frontdoor_instance(formula, seed, i, samples) for i in range(models)]
    lines = [
        f"# frontdoor-study models={models} samples={samples} seed={seed}",
        "# columns: instance p_imitable l1_ci l1_bc",
        "# mean_l1_ci averages the solved instances; mean_l1_bc averages all",
    ]
    for index, (flag, l1_ci, l1_bc) in enumerate(rows):
        ci = f"{l1_ci:.10f}" if l1_ci is not None else "-"
        lines.append(f"{index} {int(flag)} {ci} {l1_bc:.10f}")
    solved = [ci for _, ci, _ in rows if ci is not None]
    lines.append(f"# fraction_p_imitable {np.mean([flag for flag, _, _ in rows]):.10f}")
    if solved:
        lines.append(f"# mean_l1_ci {np.mean(solved):.10f}")
    lines.append(f"# mean_l1_bc {np.mean([bc for *_, bc in rows]):.10f}")
    return "\n".join(lines) + "\n"
