"""The imitation pipeline and the linear policy solver.

``P(s | do(pi))`` from a conditional-plan identification formula is linear
in the policy table, so imitation reduces to a feasibility problem over a
product of simplices.  The solver minimizes the L1 residual by linear
programming and, among residual-optimal policies, returns the one closest
to the behavior-cloning conditional (a deterministic, behaviorally
plausible tie-break).  Where the matching and simplex rows are
rank-deficient only up to rounding, "residual-optimal" and "closest" hold
only up to HiGHS's feasibility tolerance: read exactly, the float data
may describe another polytope.

Each system takes one of two steps, and HiGHS runs only in the second.
A system is pinned when its matching rows over the simplex rows have full
column rank: then at most one policy fits it exactly, and that policy is
the rows' least-squares solution (Golub & Van Loan, Matrix Computations,
ch. 5).  First, one closed-form step over the batch rounds each system's
least-squares solution onto the simplex.  Where the system is pinned, the
solution lies in the box and the rounded policy fits to 1e-9, that policy
is the answer.  Where weak LP duality at the rounded policy bounds every
residual from below by more than the tolerance, and the rounded policy's
residual meets that bound to 1e-9, no policy fits and that residual is
the LP's optimum (Boyd & Vandenberghe, Convex Optimization, sec. 5.2).
Second, every other system runs the residual LP, then the tie-break LP,
one table at a time through ``linprog``.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

# scm comes first, ahead of numpy and the rest of the package: when the
# package runs without cached bytecode, its source (the package's largest) is
# then compiled while little else is loaded, which keeps about 0.5 MB off
# peak memory
from .scm import (
    DiscreteSCM,
    JointTable,
    Policy,
    _eval,
    broadcast_to_vars,
    conditional_policy,
    intervene,
    joint,
)

import numpy as np

from .criteria import graphical_verdict
from .diagram import CausalDiagram, PolicySpace, _format_instrument, _format_nodes
from .enumerators import instruments
from .identify import IdFormula, PolicyFactor, find_policy_factor, free_variables, has_policy_factor

DEFAULT_TOLERANCE = 1e-6


def _sampled_tolerance(samples: int) -> float:
    """L1 matching tolerance for a table estimated from ``samples`` draws."""
    return 3.0 / math.sqrt(samples)


@dataclass(frozen=True, eq=False)
class ImitationResult:
    status: str  # imitable-graphical | p-imitable | no-instrument-found | infeasible
    policy: Policy | None
    witness: object
    residual: float | None

    def report(self) -> str:
        lines = [f"status {self.status}"]
        if isinstance(self.witness, frozenset):
            lines.append("witness conditioning " + _format_nodes(self.witness))
        elif isinstance(self.witness, tuple):
            lines.append("witness " + _format_instrument(*self.witness))
        if self.residual is not None:
            lines.append(f"residual {self.residual:.12g}")
        if self.policy is not None:
            p = self.policy
            lines.append("policy " + p.action + " given " + _format_nodes(p.inputs))
            rows = np.asarray(p.probs).reshape(-1, p.action_domain)
            for config, row in zip(np.ndindex(*p.input_domains) if p.inputs else [()], rows):
                prefix = " ".join(str(v) for v in config)
                lines.append("  " + (prefix + " | " if prefix else "") +
                             " ".join(f"{v:.12g}" for v in row))
        return "\n".join(lines) + "\n"


def _linear_system(formula: IdFormula, observational: JointTable,
                   surrogate: Iterable[str]):
    """Coefficients A[s, pa, x] and target t[s] of the affine system
    sum_{pa,x} A[s,pa,x] pi[pa,x] = t[s].

    One evaluation gives every column: the policy slot is bound to the
    identity over the n_pa * k policy cells, stacked along an extra axis
    named ``""`` (it sorts first and cannot clash with a node).  That axis
    is outermost in memory, so each column is summed in the same order as
    an evaluation at its own one-hot policy, bit for bit.  A batched table
    gives A and t with its batch axes in front; its batch axes are outermost
    in turn, so each table's system has the bits it would have alone."""
    ph = find_policy_factor(formula)
    if ph is None:
        raise ValueError("formula has no policy placeholder")
    svars = tuple(sorted(frozenset(surrogate)))
    if frozenset(free_variables(formula)) != frozenset(svars):
        raise ValueError("formula free variables do not match the surrogate set")
    domains = observational.domain_map()
    in_doms = tuple(domains[z] for z in ph.inputs)
    k = domains[ph.action]
    n_pa = math.prod(in_doms)
    domains[""] = n_pa * k
    axes = ("",) + ph.inputs + (ph.action,)
    target_names = tuple(sorted(axes))
    basis = np.eye(n_pa * k).reshape((n_pa * k,) + in_doms + (k,))
    policy_axes = (target_names, broadcast_to_vars(basis, axes, target_names))
    vs, arr = _eval(formula, observational, policy_axes, domains)
    batch = observational.batch
    arr = np.broadcast_to(arr, batch + tuple(domains[v] for v in vs))
    t = observational.marginal(svars).probs.reshape(batch + (-1,))
    # C order, as the loop filled it: the residual's matrix product reads it
    coeff = np.ascontiguousarray(np.moveaxis(arr, len(batch), -1)).reshape(t.shape + (n_pa, k))
    return coeff, t, ph, in_doms, k


@lru_cache(maxsize=1)
def _highs():
    """The HiGHS binding scipy ships, ``scipy.optimize._highspy._core``, and
    the one solver every LP runs on, set up with the options
    ``scipy.optimize.linprog(method="highs")`` passes.

    The binding is loaded from its file, without running the
    ``scipy.optimize`` package ``__init__``: that import pulls in
    ``scipy.linalg``, ``scipy.sparse`` and more, and takes longer than the
    LPs of most commands.  The module is created under its own name and
    registered in ``sys.modules`` before ``exec_module``, as the import
    system does, so that a later ``import scipy.optimize`` finds it there;
    one already registered is reused.  pybind11 registers the binding's
    types once per process: a copy created under another name would make
    that import load a second one, which fails with ``type "ObjSense" is
    already registered``."""
    name = "scipy.optimize._highspy._core"
    core = sys.modules.get(name)
    if core is None:
        # find_spec locates the scipy package without importing it
        [root] = importlib.util.find_spec("scipy").submodule_search_locations
        spec = importlib.machinery.FileFinder(
            os.path.join(root, "optimize", "_highspy"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        ).find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        core = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(core)

    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    solver = core._Highs()
    solver.passOptions(options)
    return core, solver


@dataclass(frozen=True, eq=False)
class _LPResult:
    """The fields of ``scipy.optimize.OptimizeResult`` that callers read."""
    x: np.ndarray | None
    fun: float | None
    success: bool
    message: str


def _check_result(x, fun, slack, con, bounds, tol, message):
    """Status and message of ``scipy.optimize._linprog_util._check_result``
    on a solution HiGHS reports optimal (status 0) for an LP without
    integrality: 0 and ``message`` when ``x`` holds no NaN and meets the
    bounds, inequality slacks ``slack`` and equality residuals ``con`` to
    ``sqrt(tol) * 10``, else status 4 and scipy's message."""
    tol = np.sqrt(tol) * 10
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any() or np.isnan(con).any():
        feasible = False
    else:
        feasible = (np.all((x >= bounds[:, 0] - tol) & (x <= bounds[:, 1] + tol))
                    and not (slack < -tol).any() and not (np.abs(con) > tol).any())
    if feasible:
        return 0, message
    return 4, ("The solution does not satisfy the constraints within the "
               f"required tolerance of {tol:.2E}, yet "
               "no errors were raised and there is no certificate of "
               "infeasibility or unboundedness. Check whether "
               "the slack and constraint residuals are acceptable; "
               "if not, consider enabling presolve, adjusting the "
               "tolerance option(s), and/or using a different method. "
               "Please consider submitting a bug report.")


def linprog(c, a, row_lower, row_upper, col_upper):
    """Minimize ``c @ x`` subject to ``row_lower <= a @ x <= row_upper`` and
    ``0 <= x <= col_upper`` on HiGHS (Huangfu & Hall, Math. Prog. Comp. 10,
    2018), with the rows in the order HiGHS stores them: the inequality rows
    come first with lower bound ``-inf``, and each equality row after them
    has equal bounds.  The dense ``a`` reaches HiGHS as the CSC arrays
    ``csc_array(a)`` holds: ``np.nonzero(a.T)`` drops the zeros and sorts the
    rows within each column.  Model, options and success test are those of
    ``scipy.optimize.linprog(method="highs")`` on the same LP, so ``x``,
    ``fun`` and ``success`` are bit-identical; the success test is
    ``_check_result``, a port of scipy's.  Every LP gets a cleared solver:
    a warm start could return another optimal vertex."""
    core, solver = _highs()

    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    row_lower = np.asarray(row_lower, dtype=float)
    row_upper = np.asarray(row_upper, dtype=float)
    # the -inf rows are the inequality rows; when one follows an equality
    # row, a -inf lands in row_lower[n_ub:] and fails the finiteness test
    n_ub = int(np.isneginf(row_lower).sum())
    if not all(np.isfinite(v).all() for v in (c, a, row_lower[n_ub:], row_upper)):
        raise ValueError("LP coefficients must not contain inf or nan")
    cols, rows = np.nonzero(a.T)
    bounds = np.column_stack([np.zeros(len(c)), col_upper])
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_upper)
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=len(c)))])
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = a[rows, cols]
    lp.col_cost_ = c
    lp.col_lower_ = bounds[:, 0]
    lp.col_upper_ = bounds[:, 1]
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    solver.clearSolver()
    ran = solver.passModel(lp) != core.HighsStatus.kError and solver.run() != core.HighsStatus.kError
    status = solver.getModelStatus()
    message = solver.modelStatusToString(status)
    if not ran or status != core.HighsModelStatus.kOptimal:
        return _LPResult(x=None, fun=None, success=False, message=message)
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    fun = solver.getInfo().objective_function_value
    slack = row_upper - solution.row_value
    checked, message = _check_result(x, fun, slack[:n_ub], slack[n_ub:], bounds, 1e-9, message)
    return _LPResult(x=x, fun=fun, success=checked == 0, message=message)


def _matching_system(a2: np.ndarray, t: np.ndarray, n_pa: int, k: int):
    """The rows A pi - r+ + r- = t and sum_x pi[pa, x] = 1 over the columns
    (pi, r+, r-), as the dense matrix [A -I I; S 0 0] and its right-hand
    side [t; 1]: one system per table, with a2's and t's batch axes in front."""
    n_s, n_pi = a2.shape[-2:]
    m = np.zeros(a2.shape[:-2] + (n_s + n_pa, n_pi + 2 * n_s))
    m[..., :n_s, :n_pi] = a2
    m[..., :n_s, n_pi:] = np.hstack([-np.eye(n_s), np.eye(n_s)])
    m[..., n_s:, :n_pi] = np.kron(np.eye(n_pa), np.ones(k))
    return m, np.concatenate([t, np.ones(t.shape[:-1] + (n_pa,))], axis=-1)


def _lp_min_residual(m: np.ndarray, b: np.ndarray, n_pi: int):
    n_r = m.shape[1] - n_pi
    c = np.concatenate([np.zeros(n_pi), np.ones(n_r)])
    # policy cells in [0, 1], residual columns in [0, inf)
    col_upper = np.concatenate([np.ones(n_pi), np.full(n_r, np.inf)])
    res = linprog(c, m, b, b, col_upper)
    if not res.success:
        raise RuntimeError(f"residual LP failed: {res.message}")
    return res.x[:n_pi], float(res.fun)


def _lp_closest(m: np.ndarray, b: np.ndarray, n_pi: int, ref: np.ndarray, cap: float):
    """Among policies with L1 residual <= cap, minimize the L1 distance to
    ref; ``None`` when the LP fails."""
    n_rows, d = m.shape
    # row 0, the one inequality row: the residual columns sum to at most
    # cap; then the matching rows, then distance rows pi - d+ + d- = ref
    a = np.zeros((1 + n_rows + n_pi, d + 2 * n_pi))
    a[0, n_pi:d] = 1.0
    a[1:1 + n_rows, :d] = m
    a[1 + n_rows:, :n_pi] = a[1 + n_rows:, d + n_pi:] = np.eye(n_pi)
    a[1 + n_rows:, d:d + n_pi] = -np.eye(n_pi)
    c = np.concatenate([np.zeros(d), np.ones(2 * n_pi)])
    b = np.concatenate([b, ref])
    col_upper = np.concatenate([np.ones(n_pi), np.full(d + n_pi, np.inf)])
    res = linprog(c, a, np.concatenate([[-np.inf], b]), np.concatenate([[cap], b]), col_upper)
    if not res.success:
        return None
    return res.x[:n_pi]


def _as_policy(raw: np.ndarray, ph: PolicyFactor, in_doms: tuple[int, ...], k: int) -> Policy:
    """The policy of the cells ``raw``, with any leading batch axes: cells at
    or below 1e-12 go to 0, where an LP's vertex has them, and cells above 1
    to 1; each row is renormalised, and a row left all zero is uniform."""
    table = np.clip(raw.reshape(raw.shape[:-1] + in_doms + (k,)), None, 1.0)
    table = np.where(table <= 1e-12, 0.0, table)
    sums = table.sum(axis=-1, keepdims=True)
    table = np.divide(table, sums, out=np.full_like(table, 1.0 / k), where=sums > 0)
    return Policy(ph.action, ph.inputs, k, in_doms, table)


def solve_policy(
    formula: IdFormula,
    observational: JointTable,
    surrogate: Iterable[str],
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[Policy | None, float | None] | tuple[Policy, np.ndarray, np.ndarray]:
    """The policy making the formula's surrogate distribution match the
    observed one within ``tolerance`` (L1), or ``None`` when none does,
    together with the exact L1 residual: the policy's, or the minimal
    achievable one.  Where the formula divides by an empty cell of the
    table, it is undefined: no policy and no residual, ``(None, None)``.
    Among the policies that match, the one closest in L1 to the
    behavior-cloning conditional is returned, up to HiGHS's tolerance as
    the module docstring says.  Each system takes the two steps set out
    there: the closed-form fit or the duality certificate (``_certificate``)
    over the whole batch at once, then the LPs (``_solve_system``) one
    table at a time.

    A batched table gives arrays with its batch axes in front: one
    ``Policy``, with the cloning row where no policy matches; the
    residuals, NaN where undefined; and the mask ``found`` of the tables
    that match."""
    if not tolerance >= 0:
        raise ValueError("tolerance must be >= 0")
    coeff, t, ph, in_doms, k = _linear_system(formula, observational, surrogate)
    n_s, n_pa = t.shape[-1], coeff.shape[-2]
    n_pi = n_pa * k
    a2, t2 = coeff.reshape(-1, n_s, n_pi), t.reshape(-1, n_s)
    m, b = _matching_system(a2, t2, n_pa, k)
    undefined = np.isnan(a2).any(axis=(1, 2))
    refs = conditional_policy(observational, ph.action, ph.inputs).probs.reshape(len(a2), -1)
    # one SVD of the policy columns of the matching rows over the simplex
    # rows gives their rank, with matrix_rank's threshold: at full column
    # rank, no two policies fit the system exactly.  It also gives the
    # least-squares solution V diag(1/s) U^T [t; 1], the only candidate on
    # such a system.  An undefined system is zeroed: one NaN fails the SVD
    # of the whole stack.
    u, s, vt = np.linalg.svd(np.where(undefined[:, None, None], 0.0, m[:, :, :n_pi]), full_matrices=False)
    kept = s > s.max(axis=-1, keepdims=True) * max(m.shape[1], n_pi) * np.finfo(s.dtype).eps
    pinned = kept.sum(axis=-1) == n_pi
    scaled = np.divide(np.einsum("nij,ni->nj", u, b), s, out=np.zeros_like(s), where=kept)
    closed = np.einsum("nji,nj->ni", vt, scaled)
    # the closed form rounded onto the simplex, one candidate per system:
    # the answer where the system is pinned, its solution lies in the box
    # and the candidate fits to 1e-9, and the duality certificate's policy
    candidate = _as_policy(closed, ph, in_doms, k)
    lower, upper = _certificate(a2, t2, candidate)
    in_box = ((closed >= -1e-12) & (closed <= 1 + 1e-12)).all(axis=-1)
    settled = (lower > tolerance) & (upper - lower <= 1e-9)
    # found is a mask of its own, not residual <= tolerance: a settled
    # system's upper bound can round to just below the tolerance
    found = ~settled & pinned & in_box & (upper <= min(tolerance, 1e-9))
    probs = np.where(found[:, None], candidate.probs.reshape(len(a2), -1), refs)
    residual = np.where(undefined, np.nan, upper)
    for i in np.flatnonzero(~(undefined | found | settled)):
        policy, residual[i] = _solve_system(a2[i], m[i], b[i], refs[i], ph, in_doms, k, tolerance)
        if policy is not None:
            found[i], probs[i] = True, policy.probs.reshape(-1)
    batch = observational.batch
    policy = Policy(ph.action, ph.inputs, k, in_doms, probs.reshape(batch + in_doms + (k,)))
    if batch:
        return policy, residual.reshape(batch), found.reshape(batch)
    return policy if found[0] else None, None if undefined[0] else float(residual[0])


def _certificate(a2: np.ndarray, t: np.ndarray, policy: Policy):
    """Bounds ``(lower, upper)`` on the least L1 residual |A pi - t|_1 over
    the policies pi, one pair per system of the stack A = ``a2``, from
    ``policy``, which holds one policy per system.

    ``upper`` is that policy's exact residual.  ``lower`` is weak LP
    duality's bound for y = sign(A pi - t) at that policy: any policy pi'
    has |A pi' - t|_1 >= y^T (A pi' - t) >= sum_pa min_x (A^T y)[pa, x] -
    y^T t (Boyd & Vandenberghe, Convex Optimization, sec. 5.2).  The two
    meet where the policy puts its mass only on the cells that minimize
    A^T y in each row."""
    probs = policy.probs.reshape(len(a2), -1, policy.action_domain)
    gaps = (a2 @ probs.reshape(len(a2), -1, 1))[..., 0] - t
    y = np.sign(gaps)
    dual = np.einsum("ns,nsi->ni", y, a2).reshape(probs.shape).min(axis=-1).sum(axis=-1)
    return dual - np.einsum("ns,ns->n", y, t), np.abs(gaps).sum(axis=-1)


def _solve_system(a2: np.ndarray, m: np.ndarray, b: np.ndarray, ref: np.ndarray, ph: PolicyFactor,
                  in_doms: tuple[int, ...], k: int, tolerance: float) -> tuple[Policy | None, float]:
    """``solve_policy``'s LP path for one system A pi = t (``a2``, and ``m``,
    ``b`` from ``_matching_system``), with ``ref`` the cloning policy: the
    residual LP, then the tie-break LP among the policies that match."""
    n_pi, t = a2.shape[1], b[:len(a2)]

    def exact_residual(policy: Policy) -> float:
        return float(np.abs(a2 @ policy.probs.reshape(-1) - t).sum())

    raw, objective = _lp_min_residual(m, b, n_pi)
    best = _as_policy(raw, ph, in_doms, k)
    best_res = exact_residual(best)
    if best_res > tolerance:
        return None, best_res
    # an exactly feasible system keeps a hard matching constraint, so the
    # tie-break moves only within the policies that fit exactly
    cap = 0.0 if best_res <= 1e-9 else max(objective, best_res) + 1e-10
    raw2 = _lp_closest(m, b, n_pi, ref, cap)
    if raw2 is not None:
        cand = _as_policy(raw2, ph, in_doms, k)
        cand_res = exact_residual(cand)
        if cand_res <= max(tolerance, best_res):
            return cand, cand_res
    return best, best_res


def verify_policy(scm: DiscreteSCM, policy: Policy, target: Iterable[str]) -> float:
    """L1 distance between the target's distribution under the policy and
    under the expert, computed exactly in the true model."""
    return _l1_to_expert(scm, joint(scm).marginal(target), policy)


def _l1_to_expert(scm: DiscreteSCM, expert: JointTable, policy: Policy):
    """L1 distance between ``expert``, a marginal of the model's joint, and
    the same marginal under the policy: a float, or an array of one per
    model for a batch of models and policies."""
    return expert.l1(joint(intervene(scm, policy)).marginal(expert.variables))


def imitate_pipeline(
    diagram: CausalDiagram,
    space: PolicySpace,
    observational: JointTable,
    reward: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ImitationResult:
    """Full decision procedure: graphical criteria first, then the
    instrument search with the linear solver, on one table.  An instrument
    whose formula divides by an empty cell of the table is passed over;
    when none gives a residual, the status is ``no-instrument-found``."""
    if observational.batch:
        raise ValueError("imitate_pipeline takes one table, not a batch")
    missing = diagram.observed - set(observational.variables)
    if missing:
        raise ValueError("the table has no column for observed node(s) " + " ".join(sorted(missing)))
    _status, witness = graphical_verdict(diagram, space, reward)
    if witness is not None:
        policy = conditional_policy(observational, space.action, witness)
        return ImitationResult("imitable-graphical", policy, frozenset(witness), 0.0)

    best_residual: float | None = None
    for subspace, surrogate, formula in instruments(diagram, space, reward):
        if not has_policy_factor(formula):
            # the action cannot reach the surrogate: every policy works
            policy = conditional_policy(observational, space.action, subspace.inputs)
            return ImitationResult("p-imitable", policy, (surrogate, subspace), 0.0)
        policy, residual = solve_policy(formula, observational, surrogate, tolerance)
        if policy is not None:
            return ImitationResult("p-imitable", policy, (surrogate, subspace), residual)
        # an instrument undefined on this table has no residual
        if residual is not None and (best_residual is None or residual < best_residual):
            best_residual = residual
    if best_residual is None:
        return ImitationResult("no-instrument-found", None, None, None)
    return ImitationResult("infeasible", None, None, best_residual)
