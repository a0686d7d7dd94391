import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from causal_imitation import fixtures, imitate
from causal_imitation.diagram import PolicySpace
from causal_imitation.errors import UnsupportedConditionalError
from causal_imitation.criteria import graphical_verdict
from causal_imitation.enumerators import instruments
from causal_imitation.identify import format_formula, has_policy_factor, identify_policy
from causal_imitation.imitate import _linear_system, imitate_pipeline, solve_policy, verify_policy
from causal_imitation.scm import (
    Mechanism,
    DiscreteSCM,
    JointTable,
    Policy,
    conditional_policy,
    empirical_observational,
    evaluate,
    joint,
    observational,
    random_frontdoor,
    random_scm,
)

from oracles import do


def _frontdoor_formula():
    case = fixtures.diagram_fixture("frontdoor_latent")
    return identify_policy(case.diagram, PolicySpace.create("X", ()), {"S"})


def _do_values(scm):
    return [joint(do(scm, "X", x)).marginal(["S"]).probs[1] for x in (0, 1)]


def mix_alpha(scm):
    """Closed-form mixing weight for a binary no-input policy problem."""
    d0, d1 = _do_values(scm)
    ps1 = observational(scm).marginal(["S"]).probs[1]
    return (ps1 - d0) / (d1 - d0)


# ------------------------------------------------------------- solve_policy

def test_lp_agrees_with_closed_form():
    formula = _frontdoor_formula()
    checked = 0
    for seed in range(40):
        scm = random_frontdoor(seed)
        alpha = mix_alpha(scm)
        if not (0.0 <= alpha <= 1.0):
            continue
        solved, residual, found = solve_policy(formula, observational(scm), 1e-9)
        assert found and residual <= 1e-9
        assert abs(solved.probs[1] - alpha) < 1e-9
        checked += 1
    assert checked > 5


def _action_blind_frontdoor():
    """A mediator-chain model whose mediator ignores the action, so that
    every policy induces the same surrogate distribution: the exact system
    is feasible but does not pin the policy down."""
    case = fixtures.diagram_fixture("frontdoor_latent")
    mechs = [
        Mechanism("X", (), ("U",), np.array([[1.0, 0.0], [0.0, 1.0]])),
        Mechanism("W", ("X",), (), np.array([[0.3, 0.7], [0.3, 0.7]])),
        Mechanism("S", ("W",), ("U",), np.stack([
            np.array([[0.8, 0.2], [0.4, 0.6]]),
            np.array([[0.1, 0.9], [0.5, 0.5]]),
        ], axis=0)),
        Mechanism("Y", ("S",), (), np.array([[0.2, 0.8], [0.9, 0.1]])),
    ]
    return DiscreteSCM.create(case.diagram, {"U": [0.4, 0.6]}, mechs)


@pytest.mark.parametrize("seed, lps", [
    (0, 0),  # infeasible, settled by the duality certificate: no LP
    (4, 0),  # the exact system pins the policy: its closed form, no LP
    pytest.param(None, 2, id="action_blind-2"),  # feasible, not pinned: the tie-break LP too
])
def test_lps_go_through_module_linprog(monkeypatch, seed, lps):
    # the benchmark's tracer times the LP layer by rebinding imitate.linprog
    model = _action_blind_frontdoor() if seed is None else random_frontdoor(seed)
    result = []
    lps_run = _capture_lps(monkeypatch, lambda: result.append(
        solve_policy(_frontdoor_formula(), observational(model), 1e-9)))
    [(_policy, _residual, found)] = result
    assert found == (seed != 0)
    assert len(lps_run) == lps


def test_sampled_table_off_the_exact_fit_keeps_the_tie_break_lp(monkeypatch):
    # a sampled table matched within its tolerance but not exactly leaves a
    # positive residual cap: the tie-break LP still runs
    formula = _frontdoor_formula()
    for index in range(40):
        model = random_frontdoor(np.random.SeedSequence(entropy=0, spawn_key=(index,)))
        table = empirical_observational(model, 1000, np.random.SeedSequence(entropy=0, spawn_key=(index, 1)))
        result = []
        lps = _capture_lps(monkeypatch, lambda: result.append(
            solve_policy(formula, table, imitate._sampled_tolerance(1000))))
        [(_policy, residual, found)] = result
        if found and residual > 1e-9:
            assert len(lps) == 2
            return
    raise AssertionError("no sampled table fits within its tolerance but not exactly")


def _closed_form_fits(formula, table) -> bool:
    """Whether the least-squares solution of the matching and simplex rows,
    from ``np.linalg.pinv``, lies in [0, 1] up to 1e-12 and fits the
    system to 1e-9: the systems whose policy needs no LP."""
    m, b, n_pi, k = _lp_system(formula, table)
    n_s = len(b) - n_pi // k
    x = np.linalg.pinv(m[:, :n_pi]) @ b
    if not ((x >= -1e-12) & (x <= 1 + 1e-12)).all():
        return False
    rows = np.clip(x, 0.0, None).reshape(-1, k)
    policy = (rows / rows.sum(axis=1, keepdims=True)).reshape(-1)
    return np.abs(m[:n_s, :n_pi] @ policy - b[:n_s]).sum() <= 1e-9


def test_study_solves_no_lp_on_exact_instances(monkeypatch):
    # every exact frontdoor system has full column rank: an instance whose
    # closed form fits needs no LP, and the duality certificate finds each
    # other one not p-imitable, also without an LP
    from causal_imitation.experiments import frontdoor_instrument, frontdoor_study

    formula, _diagram = frontdoor_instrument()
    turned_down = sum(not _closed_form_fits(formula, observational(random_frontdoor(
        np.random.SeedSequence(entropy=0, spawn_key=(i,))))) for i in range(200))
    report = []
    lps = _capture_lps(monkeypatch, lambda: report.append(frontdoor_study(200)))
    assert 50 < turned_down < 150
    assert lps == []
    flags = [line.split()[1] for line in report[0].splitlines() if not line.startswith("#")]
    assert len(flags) == 200 and flags.count("0") == turned_down


def test_exact_study_takes_the_closed_form_step_only(monkeypatch):
    # every exact frontdoor system is decided by the one closed-form step
    # over the batch: a fit or a duality certificate, never _solve_system
    from causal_imitation.experiments import frontdoor_study

    reached = []
    monkeypatch.setattr(imitate, "_solve_system", lambda *args: reached.append(args))
    report = frontdoor_study(200)
    assert reached == []
    flags = [line.split()[1] for line in report.splitlines() if not line.startswith("#")]
    assert 0 < flags.count("1") < 200


def test_pipeline_on_the_mix_fixture_solves_no_lp(monkeypatch):
    case = fixtures.diagram_fixture("frontdoor_observed")
    table = observational(fixtures.scm_fixture("frontdoor_mix"))
    result = []
    lps = _capture_lps(monkeypatch, lambda: result.append(
        imitate_pipeline(case.diagram, case.space, table, case.reward)))
    assert result[0].status == "p-imitable" and len(lps) == 0


def test_closed_form_returns_the_tie_break_policy():
    # where the closed form answers, the tie-break LP's feasible set is one
    # policy: the solve and the LP oracle that runs the tie-break LP on
    # every feasible system agree to 1e-12
    from causal_imitation.experiments import frontdoor_instrument
    from oracles import solve_policy_by_lp

    def same(got, want):
        (policy, residual), (want_policy, want_residual) = got, want
        assert (policy is None) == (want_policy is None)
        if policy is not None:
            assert np.abs(np.asarray(policy.probs) - np.asarray(want_policy.probs)).max() <= 1e-12
            assert abs(residual - want_residual) <= 1e-12
        return policy is not None

    formula, _diagram = frontdoor_instrument()
    tables = [observational(random_frontdoor(np.random.SeedSequence(entropy=0, spawn_key=(i,))))
              for i in range(1000)]
    batch = JointTable(tables[0].variables, np.stack([t.probs for t in tables]))
    solved = sum(same(got, want) for got, want in zip(_pairs(solve_policy(formula, batch, 1e-9)),
                                                      solve_policy_by_lp(formula, batch, 1e-9, skip=False),
                                                      strict=True))
    assert solved > 400
    checked = 0
    for diagram, space, reward, obs in _fixture_instrument_cases():
        for formula in _policy_instruments(diagram, space, reward):
            [got] = _pairs(solve_policy(formula, obs))
            if got == (None, None):
                # the formula divides by an empty cell: there is no system to solve
                continue
            same(got, solve_policy_by_lp(formula, obs, imitate.DEFAULT_TOLERANCE, skip=False))
            checked += 1
    assert checked >= 10


def _pairs(answer) -> list:
    """A ``solve_policy`` answer as one pair per table, in batch order, in
    the oracle's shape: ``(Policy | None, float | None)``."""
    policy, residual, found = answer
    cells = policy.input_domains + (policy.action_domain,)
    return [(Policy(policy.action, policy.inputs, row) if hit else None,
             None if np.isnan(res) else float(res))
            for row, res, hit in zip(policy.probs.reshape((-1,) + cells), residual.reshape(-1), found.reshape(-1))]


def _solves_and_lps(monkeypatch, formula, table, tolerance):
    """``solve_policy``'s pairs on a table, one per table,
    each with the number of LPs its system ran, or ``None`` where the system
    did not reach ``_solve_system``: it is undefined, its closed form fits,
    or the duality certificate settled it."""
    solve_system, linprog, systems, counts = imitate._solve_system, imitate.linprog, [], []

    def record_system(*args):
        systems.append(args[1:3])
        counts.append(0)
        return solve_system(*args)

    def record_lp(*args, **kwargs):
        counts[-1] += 1
        return linprog(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(imitate, "_solve_system", record_system)
        patch.setattr(imitate, "linprog", record_lp)
        answer = solve_policy(formula, table, tolerance)
    pairs = _pairs(answer)
    # _solve_system takes the systems in batch order: each call belongs to
    # the first table after the previous call's whose matching system (m, b)
    # it got, bit for bit
    m, b, *_ = _lp_system(formula, table)
    m, b = m.reshape((-1,) + m.shape[-2:]), b.reshape(-1, b.shape[-1])
    lps, row = {}, 0
    for (got_m, got_b), count in zip(systems, counts, strict=True):
        while not (np.array_equal(got_m, m[row]) and np.array_equal(got_b, b[row])):
            row += 1
        lps[row] = count
        row += 1
    return [(pair, lps.get(i)) for i, pair in enumerate(pairs)]


def _closed_form(pair, lps) -> bool:
    """Whether a pair of ``_solves_and_lps`` is a closed-form fit: a policy
    from a system that did not reach ``_solve_system``."""
    return lps is None and pair[0] is not None


def _settled(monkeypatch, formula, table, tolerance):
    """The systems of ``table`` that the duality certificate settled, as
    (index into the batch, pair); an unbatched table has index 0."""
    return [(i, pair) for i, (pair, lps) in enumerate(_solves_and_lps(monkeypatch, formula, table, tolerance))
            if lps is None and pair[0] is None and pair[1] is not None]


def _study_tables(models: int):
    """The exact and the 100000-sample tables of a frontdoor study's first
    ``models`` instances, drawn and stacked as its batches do, each with the
    study's tolerance."""
    batch = random_frontdoor([np.random.SeedSequence(entropy=0, spawn_key=(i,)) for i in range(models)])
    seeds = [np.random.SeedSequence(entropy=0, spawn_key=(i, 1)) for i in range(models)]
    return [(observational(batch), 1e-9),
            (empirical_observational(batch, 100_000, seeds), imitate._sampled_tolerance(100_000))]


def test_pinned_closed_form_matches_the_lp_oracle(monkeypatch):
    # a system solved without an LP took the closed form: where the LP
    # matches it to 1e-9, the two policies agree to 1e-12 and give the same
    # verdict, and elsewhere the closed form fits better than the LP.  The
    # systems: the bundled pairs' and a 2000-instance study's, exact and at
    # 100000 samples.  A bundled pair's system that ran an LP also gets the
    # LP path's answer bit for bit.
    from causal_imitation.experiments import frontdoor_instrument
    from oracles import solve_policy_by_lp

    def check(formula, table, tolerance, lp_path=False):
        """The number of the table's systems (one per table of a batch)
        solved in closed form, each checked; with ``lp_path``, the systems
        that ran an LP are checked too."""
        got = _solves_and_lps(monkeypatch, formula, table, tolerance)
        picked = [i for i, (pair, lps) in enumerate(got) if _closed_form(pair, lps) or lps and lp_path]
        if not picked:
            return 0
        probs = np.reshape(table.probs, (-1,) + table.domains)[picked]
        wants = solve_policy_by_lp(formula, JointTable(table.variables, probs), tolerance)
        for i, (want_policy, want_residual) in zip(picked, wants, strict=True):
            (policy, residual), lps = got[i]
            if lps is not None:
                assert (policy is None) == (want_policy is None) and residual == want_residual
                assert policy is None or np.array_equal(policy.probs, want_policy.probs)
                continue
            assert policy is not None and residual <= 1e-9
            if want_residual <= 1e-9:
                assert want_policy is not None
                assert np.abs(np.asarray(policy.probs) - np.asarray(want_policy.probs)).max() <= 1e-12
            else:
                assert residual < want_residual
        return sum(_closed_form(*got[i]) for i in picked)

    closed = 0
    for diagram, space, reward, obs in _fixture_instrument_cases(range(20)):
        for formula in _policy_instruments(diagram, space, reward):
            closed += check(formula, obs, imitate.DEFAULT_TOLERANCE, lp_path=True)
    assert closed >= 100
    formula, _diagram = frontdoor_instrument()
    for table, tolerance in _study_tables(2000):
        assert check(formula, table, tolerance) > 800


def test_certificate_matches_the_lp_oracle(monkeypatch):
    # a system the duality certificate settles runs no LP and gets no
    # policy: the LP path finds none either, with a residual equal to the
    # certificate's to 1e-9, and here bit for bit.  The systems: the
    # bundled pairs', exact and at 20, 1000 and 100000 samples under five
    # seeds; a 2000-instance study's, exact and at 100000 samples; and the
    # instruments of 218 random models with 2-3 policy inputs
    from causal_imitation.experiments import frontdoor_instrument
    from oracles import solve_policy_by_lp

    residuals = []

    def check(formula, table, tolerance):
        """The number of the table's systems (one per table of a batch)
        that the certificate settled, each checked."""
        settled = _settled(monkeypatch, formula, table, tolerance)
        if not settled:
            return 0
        probs = np.reshape(table.probs, (-1,) + table.domains)[[i for i, _ in settled]]
        wants = solve_policy_by_lp(formula, JointTable(table.variables, probs), tolerance)
        for (_, (policy, residual)), (want_policy, want_residual) in zip(settled, wants, strict=True):
            assert policy is None and want_policy is None
            assert residual > tolerance and abs(residual - want_residual) <= 1e-9
            residuals.append((residual, want_residual))
        return len(settled)

    def check_instruments(cases):
        return sum(check(formula, obs, imitate.DEFAULT_TOLERANCE)
                   for diagram, space, reward, obs in cases
                   for formula in _policy_instruments(diagram, space, reward))

    assert check_instruments(_fixture_instrument_cases(range(5), (20, 1000, 100_000))) >= 3
    formula, _diagram = frontdoor_instrument()
    (exact, exact_tolerance), (sampled, sampled_tolerance) = _study_tables(2000)
    # every exact system the closed form turns down lies outside the box
    assert check(formula, exact, exact_tolerance) == 1040
    assert check(formula, sampled, sampled_tolerance) > 600
    cases = list(_random_instrument_cases(300))
    assert len(cases) >= 200 and check_instruments(cases) > 0
    assert all(got == want for got, want in residuals)


def test_batch_answers_as_its_tables_alone(monkeypatch):
    # a batch of 300 tables at 20 samples over 300 exact ones, with batch
    # shape (2, 300) and the 20-sample tolerance: undefined, closed-form
    # and LP-path rows.  Each row is what its table alone gets: found
    # where that table gets a policy, with the same policy bit for bit, and
    # the cloning row elsewhere; the same residual bit for bit, NaN where it
    # has none.  The table alone answers with 0-d arrays, which each row
    # matches bit for bit
    from causal_imitation.experiments import frontdoor_instrument

    formula, _diagram = frontdoor_instrument()
    models = random_frontdoor([np.random.SeedSequence(entropy=0, spawn_key=(i,)) for i in range(300)])
    seeds = [np.random.SeedSequence(entropy=0, spawn_key=(i, 1)) for i in range(300)]
    sampled, exact = empirical_observational(models, 20, seeds), observational(models)
    batch = JointTable(exact.variables, np.stack([sampled.probs, exact.probs]))
    tolerance = imitate._sampled_tolerance(20)
    solve_system, lp_path = imitate._solve_system, []
    with monkeypatch.context() as patch:
        patch.setattr(imitate, "_solve_system", lambda *args: lp_path.append(1) or solve_system(*args))
        policy, residual, found = solve_policy(formula, batch, tolerance)
    assert residual.shape == found.shape == (2, 300) and found.dtype == bool
    assert policy.probs.shape == (2, 300) + policy.input_domains + (policy.action_domain,)
    cloning = conditional_policy(batch, policy.action, policy.inputs).probs
    undefined = 0
    for index in np.ndindex(2, 300):
        alone = JointTable(batch.variables, batch.probs[index])
        want_policy, want_residual, want_found = solve_policy(formula, alone, tolerance)
        assert want_residual.shape == want_found.shape == ()
        assert found[index] == want_found
        assert policy.probs[index].tobytes() == want_policy.probs.tobytes()
        assert found[index] or policy.probs[index].tobytes() == cloning[index].tobytes()
        assert residual[index].tobytes() == want_residual.tobytes()
        undefined += bool(np.isnan(want_residual))
    assert found[0].sum() > 100 and undefined > 100 and len(lp_path) > 100


def test_one_table_answers_in_the_batch_shape():
    # one table gets the batch's answer with no batch axes: 0-d residual
    # and found, and a policy over the inputs and the action alone.  The
    # pipeline hands ImitationResult a Python float, or None where no
    # instrument gives a residual
    case = fixtures.diagram_fixture("frontdoor_latent")
    cases = [*_fixture_instrument_cases(sizes=(20,)),
             *[(case.diagram, case.space, case.reward, observational(random_frontdoor(seed))) for seed in (0, 4)]]
    statuses = set()
    for diagram, space, reward, obs in cases:
        for formula in _policy_instruments(diagram, space, reward):
            policy, residual, found = solve_policy(formula, obs)
            assert residual.shape == found.shape == () and found.dtype == bool
            assert policy.probs.shape == policy.input_domains + (policy.action_domain,)
        result = imitate_pipeline(diagram, space, obs, reward)
        assert type(result.residual) is float or result.residual is None
        assert (result.residual is None) == (result.status == "no-instrument-found")
        statuses.add(result.status)
    assert statuses == {"imitable-graphical", "p-imitable", "infeasible", "no-instrument-found"}


def test_solve_policy_refuses_a_nan_or_negative_tolerance():
    # every comparison with NaN is false: a NaN tolerance let the LP path
    # hand back a policy with residual 0.33, single table or batch
    from causal_imitation.experiments import frontdoor_instrument

    formula, _diagram = frontdoor_instrument()
    table = observational(random_frontdoor(np.random.SeedSequence(1)))
    batch = JointTable(table.variables, np.stack([table.probs] * 2))
    for bad in (float("nan"), -1e-9, -np.inf):
        for obs in (table, batch):
            with pytest.raises(ValueError, match="tolerance must be >= 0"):
                solve_policy(formula, obs, bad)
    case = fixtures.diagram_fixture("frontdoor_observed")
    with pytest.raises(ValueError, match="tolerance must be >= 0"):
        imitate_pipeline(case.diagram, case.space, observational(fixtures.scm_fixture("frontdoor_mix")),
                         case.reward, float("nan"))
    assert solve_policy(formula, table, 0.0)[1] > 0.3


def test_certificate_lower_bound_holds_on_the_simplex():
    # weak duality: whatever the candidate, the certificate's lower bound is
    # at most the exact residual of every policy: the candidate's own and
    # 100 random ones per system.  The candidates, each rounded onto the
    # simplex by _rounded: each system's least-squares solution, where
    # the bounds meet on the systems the certificate settles, and a random
    # point of [-0.5, 1.5].  The systems:
    # a 200-instance study's, exact and at 100000 samples, the bundled
    # pairs' and those of random models.
    from causal_imitation.experiments import frontdoor_instrument

    rng = np.random.default_rng(0)

    def check(formula, table):
        coeff, t, _ph, _in_doms, k = _linear_system(formula, table)
        n_s, n_pa = t.shape[-1], coeff.shape[-2]
        n_pi = n_pa * k
        a2, t2 = coeff.reshape(-1, n_s, n_pi), t.reshape(-1, n_s)
        defined = ~np.isnan(a2).any(axis=(1, 2))
        if not defined.any():
            return 0
        a2, t2 = a2[defined], t2[defined]
        m, b = imitate._matching_system(a2, t2, n_pa, k)
        least_squares = (np.linalg.pinv(m[..., :n_pi]) @ b[..., None])[..., 0]
        policies = rng.dirichlet(np.ones(k), size=(len(a2), 100, n_pa)).reshape(len(a2), 100, n_pi)
        residuals = np.abs(np.einsum("nsi,npi->nps", a2, policies) - t2[:, None]).sum(axis=-1)
        for closed in (least_squares, rng.uniform(-0.5, 1.5, least_squares.shape)):
            lower, upper = imitate._certificate(a2, t2, imitate._rounded(closed, k), k)
            assert (lower <= upper + 1e-12).all()
            assert (lower[:, None] <= residuals + 1e-12).all()
        return len(a2)

    formula, _diagram = frontdoor_instrument()
    assert sum(check(formula, table) for table, _tolerance in _study_tables(200)) == 400
    cases = [*_fixture_instrument_cases(), *_random_instrument_cases()]
    assert sum(check(formula, obs) for diagram, space, reward, obs in cases
               for formula in _policy_instruments(diagram, space, reward)) > 50


def test_point_mass_solution_for_mix_fixture():
    case = fixtures.diagram_fixture("frontdoor_observed")
    formula = identify_policy(case.diagram, PolicySpace.create("X", ()), {"Y"})
    obs = observational(fixtures.scm_fixture("frontdoor_mix"))
    solved, _residual, found = solve_policy(formula, obs, 1e-6)
    assert found
    assert abs(solved.probs[0] - 1.0) < 1e-6  # atomic do(X=0)


def test_infeasible_instances_match_grid_oracle():
    formula = _frontdoor_formula()
    found = 0
    for seed in range(40):
        scm = random_frontdoor(seed)
        alpha = mix_alpha(scm)
        if 0.0 <= alpha <= 1.0:
            continue
        found += 1
        obs = observational(scm)
        _policy, residual, matched = solve_policy(formula, obs, 1e-6)
        assert not matched
        assert residual > 1e-6
        # brute-force grid over the policy simplex
        d0, d1 = _do_values(scm)
        ps = observational(scm).marginal(["S"]).probs
        grid = np.linspace(0.0, 1.0, 1001)
        mixes = np.stack([(1 - grid) * (1 - d0) + grid * (1 - d1),
                          (1 - grid) * d0 + grid * d1], axis=1)
        residuals = np.abs(mixes - ps).sum(axis=1)
        assert abs(residuals.min() - residual) < 5e-3
        assert residuals.min() > 1e-6
    assert found > 5


def test_degenerate_system_returns_cloning_row():
    # the mediator ignores the action, so every policy induces the same
    # surrogate distribution; the tie-break must hand back P(x)
    obs = observational(_action_blind_frontdoor())
    solved, _residual, found = solve_policy(_frontdoor_formula(), obs, 1e-6)
    assert found
    px = conditional_policy(obs, "X", ())
    assert np.allclose(solved.probs, px.probs, atol=1e-7)


def test_failed_tie_break_lp_falls_back_to_the_residual_lp_policy(monkeypatch):
    # where the tie-break LP fails after the residual LP matched the
    # system, the residual LP's policy, rounded onto the simplex, is the
    # answer, with its exact residual
    formula, obs = _frontdoor_formula(), observational(_action_blind_frontdoor())
    failed = []

    def fail(*args):
        failed.append(args)
        return None

    monkeypatch.setattr(imitate, "_lp_closest", fail)
    policy, residual, found = solve_policy(formula, obs, 1e-9)
    m, b, n_pi, k = _lp_system(formula, obs)
    best = imitate._rounded(imitate._lp_min_residual(m, b, n_pi)[0], k)
    assert len(failed) == 1 and found
    assert policy.probs.tobytes() == best.tobytes()
    assert residual == np.abs(m[:len(b) - n_pi // k, :n_pi] @ best - b[:len(b) - n_pi // k]).sum() <= 1e-9


def test_failed_residual_lp_raises_and_the_cli_exits_1(monkeypatch, capsys):
    # a system that neither the closed form nor the certificate settles runs
    # the residual LP; its failure is an error, not an answer
    from causal_imitation import cli

    failed = []

    def fail(*args):
        failed.append(args)
        return imitate._LPResult(x=None, fun=None, success=False, message="patched failure")

    monkeypatch.setattr(imitate, "linprog", fail)
    with pytest.raises(RuntimeError, match="residual LP failed: patched failure"):
        solve_policy(_frontdoor_formula(), observational(_action_blind_frontdoor()), 1e-9)
    # a sampled table on which the CLI's search reaches the LP path
    argv = ["imitate", "--graph", "frontdoor_observed", "--scm", "frontdoor_mix", "--samples", "1000", "--seed", "3"]
    assert cli.main(argv) == 1
    assert len(failed) == 2
    assert capsys.readouterr().err == "error: residual LP failed: patched failure\n"


def test_solver_requires_placeholder():
    from causal_imitation.identify import Factor

    obs = observational(fixtures.scm_fixture("frontdoor_mix"))
    with pytest.raises(ValueError, match="placeholder"):
        solve_policy(Factor(("Y",)), obs)


# ------------------------------------------------------------- tie-break LP

def _lp_system(formula, obs):
    """The LPs' inputs: the matching system and its right-hand side, from
    ``_matching_system``, and the number of policy cells, plus k for
    rounding a solution onto the simplex.  A batched table gives one system
    per table, with its batch axes in front."""
    coeff, t, _ph, _in_doms, k = _linear_system(formula, obs)
    n_s, n_pa = t.shape[-1], coeff.shape[-2]
    m, b = imitate._matching_system(coeff.reshape(t.shape[:-1] + (n_s, -1)), t, n_pa, k)
    return m, b, n_pa * k, k


def test_lp_closest_backdoor_segment():
    # covariate-conditioned problems admit a solution segment; the tie-break
    # LP picks the feasible point nearest a reference in L1
    case = fixtures.diagram_fixture("backdoor_observed")
    formula = identify_policy(case.diagram, case.space, {"Y"})
    rng = np.random.default_rng(4)
    checked = 0
    for seed in range(30):
        scm = random_scm(case.diagram, seed=seed)
        obs = observational(scm)
        solved, _residual, found = solve_policy(formula, obs, 1e-9)
        if not found:
            continue
        checked += 1
        m, b, n_pi, k = _lp_system(formula, obs)
        # the solved policy itself must be recoverable at distance ~0
        solved_flat = np.asarray(solved.probs).reshape(-1)
        raw = imitate._lp_closest(m, b, n_pi, solved_flat, 1e-9)
        assert np.abs(raw - solved_flat).sum() < 1e-6
        # a random reference: the result must stay feasible and beat the
        # solved policy's distance to that reference
        ref = rng.uniform(size=(2, 2)) + 1e-3
        ref = (ref / ref.sum(-1, keepdims=True)).reshape(-1)
        raw2 = imitate._lp_closest(m, b, n_pi, ref, 1e-9)
        pol2 = Policy(solved.action, solved.inputs, imitate._rounded(raw2, k).reshape(solved.probs.shape))
        assert evaluate(formula, obs, pol2).l1(obs.marginal(["Y"])) < 1e-7
        assert np.abs(raw2 - ref).sum() <= np.abs(solved_flat - ref).sum() + 1e-9
    assert checked > 5


def _random_instrument_cases(trials=40):
    """(diagram, space, reward, exact table) for random 7-10-node models
    with 2-3 policy inputs, from ``trials`` draws of which some are passed
    over; the first 40 draws are the same for any ``trials``."""
    from causal_imitation.diagram import validate_space
    from oracles import random_diagram

    rng = np.random.default_rng(0)
    for trial in range(trials):
        d = random_diagram(rng, int(rng.integers(7, 11)), latent_fraction=0.3)
        obs_nodes = sorted(d.observed)
        candidates = [(x, y) for x in obs_nodes for y in sorted(d.descendants({x}, False))]
        if not candidates:
            continue
        action, reward = candidates[int(rng.integers(len(candidates)))]
        eligible = [z for z in obs_nodes if z not in (action, reward)
                    and not validate_space(d, PolicySpace.create(action, {z}))]
        if len(eligible) < 2:
            continue
        k = min(len(eligible), int(rng.integers(2, 4)))
        space = PolicySpace.create(action, rng.choice(eligible, size=k, replace=False).tolist())
        yield d, space, reward, observational(random_scm(d, seed=trial))


def _fixture_instrument_cases(seeds=(0,), sizes=(1000,)):
    """(diagram, space, reward, table) for every bundled pair whose model
    observes the diagram's nodes, with the exact table and a sampled table
    per sample size and seed."""
    for name in fixtures.diagram_names():
        case = fixtures.diagram_fixture(name)
        for model in fixtures.scm_names():
            scm = fixtures.scm_fixture(model)
            sampled = [empirical_observational(scm, n, np.random.SeedSequence(seed)) for n in sizes for seed in seeds]
            for obs in [observational(scm), *sampled]:
                if case.diagram.observed <= set(obs.variables):
                    yield case.diagram, case.space, case.reward, obs


def _policy_instruments(diagram, space, reward):
    """The formula of each instrument that has a policy factor."""
    return [formula for _subspace, _surrogate, formula in instruments(diagram, space, reward)
            if has_policy_factor(formula)]


def test_linear_system_bit_identical_to_basis_loop():
    # one evaluation at the stacked identity policy gives the coefficients
    # of one evaluation per one-hot policy, bit for bit, and NaN in the same
    # cells where the formula divides by an empty cell
    from causal_imitation.experiments import frontdoor_instrument
    from oracles import linear_system_by_basis

    undefined = 0

    def assert_same(formula, obs):
        nonlocal undefined
        want = linear_system_by_basis(formula, obs)
        got = _linear_system(formula, obs)
        nan = np.isnan(want[0])
        assert np.array_equal(np.isnan(got[0]), nan)
        assert np.array_equal(got[0][~nan].view(np.uint64), want[0][~nan].view(np.uint64))
        assert np.array_equal(got[1], want[1])
        assert got[2:] == want[2:]
        undefined += bool(nan.any())

    def check_instruments(cases) -> int:
        checked = 0
        for diagram, space, reward, obs in cases:
            for formula in _policy_instruments(diagram, space, reward):
                assert_same(formula, obs)
                checked += 1
        return checked

    formula, _diagram = frontdoor_instrument()
    for i in range(100):
        scm = random_frontdoor(np.random.SeedSequence(entropy=0, spawn_key=(i,)))
        assert_same(formula, observational(scm))
        sampled = empirical_observational(scm, 100_000, np.random.SeedSequence(entropy=0, spawn_key=(i, 1)))
        assert_same(formula, sampled)

    # with the column axis innermost in memory, 17 of these 48 systems
    # differ in their last bits
    assert check_instruments(_random_instrument_cases()) >= 40
    assert check_instruments(_fixture_instrument_cases()) >= 10
    assert undefined >= 1


def test_lp_closest_infeasible_returns_none():
    formula = _frontdoor_formula()
    for seed in range(40):
        scm = random_frontdoor(seed)
        if 0.0 <= mix_alpha(scm) <= 1.0:
            continue
        obs = observational(scm)
        m, b, n_pi, _k = _lp_system(formula, obs)
        ref = np.asarray(conditional_policy(obs, "X", ()).probs)
        assert imitate._lp_closest(m, b, n_pi, ref, 1e-9) is None
        return
    raise AssertionError("no infeasible seed found")


def test_lps_read_the_one_matching_system(monkeypatch):
    # on tables whose tie-break LP runs, both LPs hold _matching_system's
    # system, and the SVD behind the rank test and the closed form reads
    # that system's policy columns: the action-blind table is matched
    # exactly but not pinned, the sampled mix table is pinned but matched
    # only within its tolerance
    case = fixtures.diagram_fixture("frontdoor_observed")
    mix = empirical_observational(fixtures.scm_fixture("frontdoor_mix"), 100_000, np.random.SeedSequence(entropy=0))
    cases = [(_frontdoor_formula(), observational(_action_blind_frontdoor()), 1e-9, False),
             (identify_policy(case.diagram, PolicySpace.create("X", ()), {"Y"}), mix,
              imitate._sampled_tolerance(100_000), True)]
    svd, read = np.linalg.svd, []

    def record(a, *args, **kwargs):
        read.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(imitate.np.linalg, "svd", record)
    for formula, table, tolerance, unique in cases:
        read.clear()
        lps = _capture_lps(monkeypatch, lambda: solve_policy(formula, table, tolerance))
        residual_lp, tie_break_lp = (inspect.signature(imitate.linprog).bind(*args, **kwargs).arguments["a"]
                                     for args, kwargs in lps)
        m, b, n_pi, _k = _lp_system(formula, table)
        assert np.array_equal(residual_lp, m)
        assert np.array_equal(tie_break_lp[1:1 + len(m)], np.pad(m, ((0, 0), (0, 2 * n_pi))))
        [policy_columns] = read
        assert np.array_equal(policy_columns, m[None, :, :n_pi])
        assert (np.linalg.matrix_rank(policy_columns[0]) == n_pi) == unique


# ------------------------------------------------------------- the LP layer

def _capture_lps(monkeypatch, run) -> list:
    """(args, kwargs) of every LP that ``run()`` solves through imitate.linprog."""
    lps = []
    solve = imitate.linprog

    def record(*args, **kwargs):
        lps.append((args, kwargs))
        return solve(*args, **kwargs)

    monkeypatch.setattr(imitate, "linprog", record)
    try:
        run()
    finally:
        monkeypatch.setattr(imitate, "linprog", solve)
    return lps


def _outcome(res):
    """x, fun and success of an LP result, in a form compared bit for bit."""
    return (None if res.x is None else res.x.tobytes(),
            None if res.fun is None else float(res.fun).hex(), bool(res.success))


def _scipy_form(args, kwargs):
    """The LP imitate.linprog takes, as scipy.optimize.linprog's keyword
    arguments: the leading rows with lower bound -inf are A_ub, the rest
    A_eq, and every column is bounded below by 0."""
    lp = inspect.signature(imitate.linprog).bind(*args, **kwargs).arguments
    c, row_lower, row_upper = (np.asarray(lp[key], dtype=float) for key in ("c", "row_lower", "row_upper"))
    n_ub = int(np.isneginf(row_lower).sum())
    assert np.isneginf(row_lower[:n_ub]).all(), "the -inf rows come first"
    assert np.array_equal(row_lower[n_ub:], row_upper[n_ub:], equal_nan=True), "equality rows"
    a = np.asarray(lp["a"], dtype=float)
    return dict(c=c, A_ub=a[:n_ub] if n_ub else None, b_ub=row_upper[:n_ub] if n_ub else None,
                A_eq=a[n_ub:], b_eq=row_upper[n_ub:],
                bounds=np.column_stack([np.zeros(len(c)), lp["col_upper"]]))


def _checked_outcome(args, kwargs):
    """imitate.linprog's outcome on the LP, after checking that the matrix
    HiGHS holds is what csc_array(dense) holds, as scipy would pass it."""
    from scipy.sparse import csc_array

    got = _outcome(imitate.linprog(*args, **kwargs))
    scipy_lp = _scipy_form(args, kwargs)
    want = csc_array(np.vstack([m for m in (scipy_lp["A_ub"], scipy_lp["A_eq"]) if m is not None]))
    held = imitate._highs()[1].getLp().a_matrix_
    for part, name in (("indptr", "start_"), ("indices", "index_"), ("data", "value_")):
        assert np.array_equal(getattr(want, part), getattr(held, name)), part
    return got


def _oracle_outcome(args, kwargs):
    """The public scipy.optimize.linprog on the same LP with dense rows,
    which scipy turns into CSC itself."""
    from oracles import linprog_scipy

    return _outcome(linprog_scipy(**_scipy_form(args, kwargs)))


def _study_lps(monkeypatch):
    """The LPs of the frontdoor study's first 150 instances, exact and at
    100000 samples, as the study ran them before the duality certificate:
    the residual LP of each system the certificate settles, built directly,
    and the LPs the sampled study still runs (the exact one runs none)."""
    from causal_imitation.experiments import frontdoor_instrument, frontdoor_study

    formula, _diagram = frontdoor_instrument()
    settled = [JointTable(table.variables, table.probs[i]) for table, tolerance in _study_tables(150)
               for i, _pair in _settled(monkeypatch, formula, table, tolerance)]

    def residual_lps():
        for table in settled:
            m, b, n_pi, _k = _lp_system(formula, table)
            imitate._lp_min_residual(m, b, n_pi)

    return (_capture_lps(monkeypatch, residual_lps)
            + _capture_lps(monkeypatch, lambda: frontdoor_study(150, samples=100_000)))


def _instrument_lps(monkeypatch, cases):
    """The LPs of the instruments' systems on the cases' tables, with the
    residual LP of each system the duality certificate settles built
    directly, as the solve ran it before the certificate."""
    def run():
        for diagram, space, reward, obs in cases:
            for formula in _policy_instruments(diagram, space, reward):
                if _settled(monkeypatch, formula, obs, imitate.DEFAULT_TOLERANCE):
                    m, b, n_pi, _k = _lp_system(formula, obs)
                    imitate._lp_min_residual(m, b, n_pi)

    return _capture_lps(monkeypatch, run)


def _infeasible_tie_break_lp(monkeypatch):
    formula = _frontdoor_formula()
    for seed in range(40):
        scm = random_frontdoor(seed)
        if not 0.0 <= mix_alpha(scm) <= 1.0:
            obs = observational(scm)
            m, b, n_pi, _k = _lp_system(formula, obs)
            ref = np.asarray(conditional_policy(obs, "X", ()).probs)
            [lp] = _capture_lps(monkeypatch, lambda: imitate._lp_closest(m, b, n_pi, ref, 1e-9))
            return lp
    raise AssertionError("no infeasible seed found")


def _lp_groups(monkeypatch) -> dict:
    """The LPs the package builds: the frontdoor study's (exact and sampled),
    the instruments' of random models and of every bundled pair, and an
    infeasible tie-break LP.  The bundled pairs' exact systems and most of
    their sampled ones take the closed form, so the pairs are sampled
    under 20 seeds."""
    return {
        "study": _study_lps(monkeypatch),
        "random": _instrument_lps(monkeypatch, list(_random_instrument_cases())),
        "fixtures": _instrument_lps(monkeypatch, list(_fixture_instrument_cases(range(20)))),
        "infeasible": [_infeasible_tie_break_lp(monkeypatch)],
    }


def test_linprog_bit_identical_to_scipy(monkeypatch):
    # imitate.linprog drives HiGHS through scipy's private binding; x, fun
    # and success must equal the public linprog's on every LP the package
    # builds, or a change in that binding shows here first
    groups = _lp_groups(monkeypatch)
    failed = 0
    for group, lps in groups.items():
        for args, kwargs in lps:
            got = _checked_outcome(args, kwargs)
            assert got == _oracle_outcome(args, kwargs), group
            failed += not got[2]
    assert len(groups["study"]) > 150 and len(groups["random"]) > 40 and len(groups["fixtures"]) > 10
    assert failed == 1  # only the infeasible tie-break LP


def test_linprog_reused_solver_leaks_no_state(monkeypatch):
    # A, B, A, B on the one solver: the largest random-model LP and the
    # infeasible tie-break LP each give the same bits the second time
    lp_a = max(_instrument_lps(monkeypatch, _random_instrument_cases()), key=lambda lp: len(lp[0][0]))
    lp_b = _infeasible_tie_break_lp(monkeypatch)
    lps = [lp_a, lp_b, lp_a, lp_b]
    got = [_checked_outcome(args, kwargs) for args, kwargs in lps]
    assert got == [_oracle_outcome(args, kwargs) for args, kwargs in lps]
    assert got[:2] == got[2:] and got[0][2] and not got[1][2]


def test_linprog_solver_keeps_the_linprog_highs_options():
    # the options scipy.optimize.linprog(method="highs") passes, still set
    # after the reused solver has been cleared and run
    solve_policy(_frontdoor_formula(), observational(random_frontdoor(0)))
    core, solver = imitate._highs()
    keys = ("presolve", "simplex_strategy", "highs_debug_level", "log_to_console", "output_flag")
    assert {key: solver.getOptionValue(key)[1] for key in keys} == {
        "presolve": "on",
        "simplex_strategy": int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        "highs_debug_level": int(core.HighsDebugLevel.kHighsDebugLevelNone),
        "log_to_console": False,
        "output_flag": False,
    }


def _spoiled(x, fun, slack, con, bounds, tol, message):
    """The inputs of a success test, each with one defect (or a bound missed
    by just under the tolerance), and whether the solution must fail."""
    edge = np.sqrt(tol) * 10

    def swap(at, value, index=0):
        args = [np.array(x), fun, np.array(slack), np.array(con), bounds, tol, message]
        if at == 1:
            args[1] = value
        else:
            args[at][index] = value
        return tuple(args)

    cases = [
        ("bound violated by 1e-3", swap(0, bounds[0, 0] - 1e-3), True),
        ("upper bound violated by 1e-3", swap(0, bounds[0, 1] + 1e-3), True),
        ("bound missed just over the tolerance", swap(0, bounds[0, 0] - 1.001 * edge), True),
        ("bound missed just under the tolerance", swap(0, bounds[0, 0] - 0.999 * edge), False),
        ("equality residual", swap(3, con[0] + 1e-3), True),
        ("NaN in x", swap(0, np.nan), True),
        ("NaN objective", swap(1, np.nan), True),
        ("NaN equality residual", swap(3, np.nan), True),
    ]
    if len(slack):
        cases += [("negative slack", swap(2, -1e-3), True), ("NaN slack", swap(2, np.nan), True)]
    return cases


def test_check_result_port_matches_scipy(monkeypatch):
    # imitate._check_result ports the branch of scipy's _check_result that
    # linprog reaches (status 0, no integrality): same status and message on
    # every solution the bit-identity test checks, and on each one spoiled
    from scipy.optimize._linprog_util import _check_result as scipy_check_result

    port, checked = imitate._check_result, []

    def record(*args):
        checked.append(args)
        return port(*args)

    lps = [lp for group in _lp_groups(monkeypatch).values() for lp in group]
    with monkeypatch.context() as patch:
        patch.setattr(imitate, "_check_result", record)
        for args, kwargs in lps:
            imitate.linprog(*args, **kwargs)
    assert len(checked) == len(lps) - 1  # the infeasible LP has no solution to check
    assert sum(len(args[2]) > 0 for args in checked) > 40  # tie-break LPs have a slack
    for args in checked:
        x, fun, slack, con, bounds, tol, message = args
        assert port(*args) == scipy_check_result(x, fun, 0, slack, con, bounds, tol, message, None) == (0, message)
        for name, spoiled, fails in _spoiled(*args):
            x, fun, slack, con, bounds, tol, message = spoiled
            got = port(*spoiled)
            assert got == scipy_check_result(x, fun, 0, slack, con, bounds, tol, message, None), name
            assert got[0] == (4 if fails else 0), name


_FRESH_INTERPRETER_LPS = """
import json, sys
import numpy as np
from causal_imitation import fixtures, imitate
from causal_imitation.experiments import frontdoor_instrument
from causal_imitation.imitate import (
    _linear_system, _lp_min_residual, _matching_system, _sampled_tolerance, imitate_pipeline, solve_policy,
)
from causal_imitation.scm import empirical_observational, observational, random_frontdoor

lps, solve = [], imitate.linprog

def record(*args, **kwargs):
    res = solve(*args, **kwargs)
    lps.append((args, kwargs, res))
    return res

imitate.linprog = record
# the exact study runs no LP: the residual LPs of the instances the duality
# certificate settles, built directly
formula, _diagram = frontdoor_instrument()
for i in range(60):
    table = observational(random_frontdoor(np.random.SeedSequence(entropy=0, spawn_key=(i,))))
    if not solve_policy(formula, table, 1e-9)[2]:
        coeff, t, _ph, _in_doms, k = _linear_system(formula, table)
        m, b = _matching_system(coeff.reshape(len(t), -1), t, coeff.shape[1], k)
        _lp_min_residual(m, b, coeff.shape[1] * k)
case = fixtures.diagram_fixture("frontdoor_observed")
# at 100000 samples this pair's table is matched within its tolerance, not
# exactly, so the tie-break LP runs too
samples = 100_000
table = empirical_observational(fixtures.scm_fixture("frontdoor_mix"), samples, np.random.SeedSequence(entropy=0))
imitate_pipeline(case.diagram, case.space, table, case.reward, _sampled_tolerance(samples))
imitate.linprog = solve
before = [m for m in ("scipy.optimize", "scipy.sparse", "scipy.linalg") if m in sys.modules]

import scipy.optimize
from scipy.optimize._highspy import _core
from test_imitate import _outcome, _scipy_form

print(json.dumps({
    "loaded_before": before,
    "same_module": _core is imitate._highs()[0],
    "lps": len(lps),
    "tie_break": sum(_scipy_form(args, kwargs)["A_ub"] is not None for args, kwargs, _ in lps),
    "differ": [i for i, (args, kwargs, res) in enumerate(lps)
               if _outcome(res) != _outcome(scipy.optimize.linprog(**_scipy_form(args, kwargs)))],
}))
"""


def test_linprog_loads_highs_without_scipy_optimize():
    # in-process tests import scipy.optimize first (through oracles), so the
    # loader's own path runs only in a fresh interpreter
    src, here = Path(__file__).parents[1] / "src", Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), str(here), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FRESH_INTERPRETER_LPS], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["loaded_before"] == [] and got["same_module"]
    assert got["lps"] >= 20 and got["tie_break"] >= 1
    assert got["differ"] == []


def _small_lp():
    """x0 + x1 = 1 under x0 - x1 <= 0.5, with x0 in [0, 1] and x1 >= 0."""
    return dict(c=np.array([1.0, 2.0]),
                a=np.array([[1.0, -1.0], [1.0, 1.0]]),
                row_lower=np.array([-np.inf, 1.0]), row_upper=np.array([0.5, 1.0]),
                col_upper=np.array([1.0, np.inf]))


@pytest.mark.parametrize("field", ["c", "A_eq", "b_eq", "A_ub", "b_ub"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_linprog_rejects_non_finite_data(field, bad):
    # each field names the part of scipy's form the bad value lands in
    from oracles import linprog_scipy

    lp = _small_lp()
    assert _outcome(imitate.linprog(**lp)) == _oracle_outcome((), lp)
    if field == "c":
        lp["c"][0] = bad
    elif field.startswith("A"):  # an entry of the inequality row 0 or the equality row 1
        lp["a"][0 if field == "A_ub" else 1, 1] = bad
    elif field == "b_ub":
        lp["row_upper"][0] = bad
    else:  # an equality row's right-hand side is both of its bounds
        lp["row_lower"][1] = lp["row_upper"][1] = bad
    scipy_lp = _scipy_form((), lp)
    with pytest.raises(ValueError, match="inf"):
        imitate.linprog(**lp)
    with pytest.raises(ValueError, match="inf"):
        linprog_scipy(**scipy_lp)


@pytest.mark.parametrize("lower", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf_after_an_equality_row"])
def test_linprog_rejects_a_non_finite_equality_lower_bound(lower):
    # the same LP with its rows swapped: a -inf lower bound marks an
    # inequality row only among the leading rows
    lp = _small_lp()
    lp["a"] = lp["a"][::-1]
    lp["row_lower"], lp["row_upper"] = np.array([1.0, lower]), np.array([1.0, 0.5])
    with pytest.raises(ValueError, match="inf"):
        imitate.linprog(**lp)


# ------------------------------------------------------------- verify_policy

def test_backdoor_policy_verifies_exactly():
    case = fixtures.diagram_fixture("highway_adjustable")
    for seed in range(5):
        scm = random_scm(case.diagram, seed=seed)
        pol = conditional_policy(observational(scm), "X", ["Z"])
        assert verify_policy(scm, pol, {"Y"}) < 1e-9


def test_cloning_residual_on_intro_highway():
    scm = fixtures.scm_fixture("highway_xor")
    pol = conditional_policy(observational(scm), "X", ())
    assert abs(verify_policy(scm, pol, {"Y"}) - 1.0) < 1e-12


# ------------------------------------------------------------- frontdoor study

@pytest.mark.parametrize("samples", [0, 100_000])
def test_study_joint_calls_do_not_grow_with_models(monkeypatch, samples):
    # a chunk of models is one joint call for the models, one for the
    # sampled tables and one for the solved and cloning policies together
    from causal_imitation import experiments, scm as scm_module

    calls = []
    exact = scm_module.joint
    for module in (scm_module, imitate, experiments):
        monkeypatch.setattr(module, "joint", lambda model: calls.append(model) or exact(model))
    counts = []
    for models in (4, 20):
        calls.clear()
        experiments.frontdoor_study(models, samples=samples)
        counts.append(len(calls))
    assert counts == [2 + (samples > 0)] * 2

    # 7 models in chunks of 3 are 3 chunks' worth of calls, and no joint
    # sees more models than a chunk holds: the study's memory is bounded.
    # One usable CPU keeps the chunks in this process, where calls are counted
    monkeypatch.setattr(experiments, "_CHUNK", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls.clear()
    experiments.frontdoor_study(7, samples=samples)
    assert len(calls) == 3 * (2 + (samples > 0))
    assert max(model.batch[-1] for model in calls) == 3

    # the study's L1 values are verify_policy's, bit for bit
    formula, _diagram = experiments.frontdoor_instrument()
    rows = zip(*experiments._frontdoor_batch((0, 0, 20, samples)), strict=True)
    for index, (_flag, l1_ci, l1_bc) in enumerate(rows):
        model = random_frontdoor(np.random.SeedSequence(entropy=0, spawn_key=(index,)))
        table = (empirical_observational(model, samples, np.random.SeedSequence(entropy=0, spawn_key=(index, 1)))
                 if samples else observational(model))
        tolerance = imitate._sampled_tolerance(samples) if samples else 1e-9
        solved, _residual, found = solve_policy(formula, table, tolerance)
        assert l1_ci == verify_policy(model, solved, {"Y"}) if found else np.isnan(l1_ci)
        assert l1_bc == verify_policy(model, conditional_policy(table, "X", ()), {"Y"})


def test_study_batch_builds_no_policy_per_instance(monkeypatch):
    # the solved policies of a batch stay one array: an exact batch of 8
    # instances and one of 200 construct as many Policy objects.  At 100000
    # samples, the LP path builds none either: _solve_system hands back cells
    from causal_imitation import experiments, scm as scm_module

    built, inside = [], []
    post_init, solve_system = scm_module.Policy.__post_init__, imitate._solve_system

    def count(policy):
        built.append(1)
        post_init(policy)

    def system(*args):
        before = len(built)
        answer = solve_system(*args)
        inside.append(len(built) - before)
        return answer

    monkeypatch.setattr(scm_module.Policy, "__post_init__", count)
    monkeypatch.setattr(imitate, "_solve_system", system)
    counts = {}
    for samples in (0, 100_000):
        for models in (8, 200):
            del built[:], inside[:]
            experiments._frontdoor_batch((0, 0, models, samples))
            counts[samples, models] = len(built) - sum(inside), len(inside)
            assert all(made == 0 for made in inside)
    assert counts[0, 8] == counts[0, 200] and counts[0, 8][1] == 0
    assert counts[100_000, 8][0] == counts[100_000, 200][0] and counts[100_000, 200][1] > 20


def test_study_finds_its_instrument_once_per_process(monkeypatch):
    # the instrument search runs, and the diagram is parsed, once per
    # process: not once per study, nor once per batch
    from causal_imitation import enumerators, experiments

    found = experiments.frontdoor_instrument()
    assert found == experiments.frontdoor_instrument.__wrapped__()  # a fresh search
    assert experiments.frontdoor_instrument() is found
    queries, parsed, parse = [], [], fixtures.parse_diagram_text

    def counted(*args):
        queries.append(args)
        return identify_policy(*args)

    def counted_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(enumerators, "identify_policy", counted)
    monkeypatch.setattr(fixtures, "parse_diagram_text", counted_parse)
    experiments.frontdoor_instrument.cache_clear()
    experiments.frontdoor_study(4)
    # the first study of the process runs the search and parses the diagram
    assert queries and parsed == [fixtures.DIAGRAM_TEXT["frontdoor_latent"]]
    queries.clear()
    parsed.clear()
    monkeypatch.setattr(experiments, "_CHUNK", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # no pool: the queries are seen here
    experiments.frontdoor_study(4)  # two batches
    assert queries == [] and parsed == []
    # random_frontdoor takes the diagram the study holds
    experiments.frontdoor_instrument.cache_clear()
    parsed.clear()
    for i in range(100):
        random_frontdoor(i)
    assert parsed == [fixtures.DIAGRAM_TEXT["frontdoor_latent"]]


def _bits(rows):
    return [(flag, None if ci is None else ci.hex(), bc.hex()) for flag, ci, bc in rows]


def _batch_rows(batches):
    """The rows of ``_frontdoor_batch`` arrays, as ``frontdoor_instance``
    gives them: ``(p_imitable, l1_ci or None, l1_bc)``."""
    rows = []
    for flags, l1_ci, l1_bc in batches:
        assert flags.dtype == bool and flags.shape == l1_ci.shape == l1_bc.shape
        rows += [(bool(flag), None if np.isnan(ci) else float(ci), float(bc))
                 for flag, ci, bc in zip(flags, l1_ci, l1_bc)]
    return rows


# seed 15 at 1000 samples: instances 2 and 4 have a sampled table with an
# empty conditioning cell; seed 17000236 at 100000 samples: instance 0
STUDY_CASES = [
    *[(models, samples, 15, None) for models in (1, 4, 7) for samples in (0, 1000, 100_000)],
    (1, 100_000, 17_000_236, None),
    (4, 100_000, 17_000_236, None),
    # batches of at most 3, cut at 2 and 4
    *[(7, samples, 15, 3) for samples in (0, 1000)],
]


@pytest.mark.parametrize("models, samples, seed, chunk", STUDY_CASES, ids=[
    f"{models}-{samples}-{seed}" + ("" if chunk is None else f"-chunk{chunk}")
    for models, samples, seed, chunk in STUDY_CASES
])
def test_study_matches_the_instance_loop(monkeypatch, models, samples, seed, chunk):
    # the batched study reports what a loop over single instances reports,
    # byte for byte, with every L1 bit for bit: in this process on one CPU,
    # with one batch or in chunks of ``chunk``, and on a pool of 2 CPUs
    # with at least 2 batches wherever there are 2 models
    from causal_imitation import experiments
    from oracles import frontdoor_instance, frontdoor_study_loop

    formula, _diagram = experiments.frontdoor_instrument()
    want = frontdoor_study_loop(formula, models, samples, seed)
    for cpus, batch_size in ((1, chunk), (2, chunk or max(1, models // 2))):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            if batch_size is not None:
                patch.setattr(experiments, "_CHUNK", batch_size)
            assert experiments.frontdoor_study(models, samples, seed) == want
    loop = _bits([frontdoor_instance(formula, seed, i, samples) for i in range(models)])
    for cuts in ((0, models), (0, models // 2, models)):
        batches = [experiments._frontdoor_batch((seed, start, stop, samples))
                   for start, stop in zip(cuts, cuts[1:]) if start < stop]
        assert _bits(_batch_rows(batches)) == loop


def test_study_reports_an_empty_cell_instance_as_unsolved():
    # a sampled table on which P(S|W,X) is undefined does not abort the
    # study: the solver gives that table no policy and no residual, that
    # instance reports no l1_ci, and the others carry on
    from causal_imitation import experiments

    formula, _diagram = experiments.frontdoor_instrument()
    model = random_frontdoor(np.random.SeedSequence(entropy=17_000_236, spawn_key=(0,)))
    table = empirical_observational(model, 100_000, np.random.SeedSequence(entropy=17_000_236, spawn_key=(0, 1)))
    _policy, residual, found = solve_policy(formula, table, imitate._sampled_tolerance(100_000))
    assert not found and np.isnan(residual)
    # evaluate, where the formula is the answer, still raises, and names it
    with pytest.raises(UnsupportedConditionalError, match=re.escape(format_formula(formula))):
        evaluate(formula, table, conditional_policy(table, "X", ()))
    assert experiments.frontdoor_study(1, 100_000, 17_000_236).splitlines()[3].split()[2] == "-"
    rows = [line.split() for line in experiments.frontdoor_study(7, 1000, 15).splitlines()
            if not line.startswith("#")]
    unsolved = {int(index) for index, _flag, l1_ci, _l1_bc in rows if l1_ci == "-"}
    assert {2, 4} <= unsolved and len(unsolved) < 7


def test_study_solves_the_pinned_instance_highs_misses():
    # instance 19256 of the seed-0 study: HiGHS returns the vertex x = [1, 0]
    # with objective -6.3e-8, whose exact residual 6.3e-8 is above 1e-9;
    # the system's unique solution, near [1 - 1.06e-5, 1.06e-5], lies in the
    # box and fits to rounding, so the instance is p-imitable
    from causal_imitation.experiments import _frontdoor_batch

    [flag], [l1_ci], [_l1_bc] = _frontdoor_batch((0, 19256, 19257, 0))
    assert flag and not np.isnan(l1_ci) and l1_ci <= 1e-9


# ------------------------------------------------------------- pipeline

def test_pipeline_backdoor_case():
    case = fixtures.diagram_fixture("highway_adjustable")
    scm = random_scm(case.diagram, seed=1)
    res = imitate_pipeline(case.diagram, case.space, observational(scm), "Y")
    assert res.status == "imitable-graphical"
    assert res.witness == {"Z"}
    assert verify_policy(scm, res.policy, {"Y"}) < 1e-9


def test_pipeline_mediator_instrument_case():
    case = fixtures.diagram_fixture("frontdoor_observed")
    scm = fixtures.scm_fixture("frontdoor_mix")
    res = imitate_pipeline(case.diagram, case.space, observational(scm), "Y")
    assert res.status == "p-imitable"
    surrogate, subspace = res.witness
    assert surrogate == {"Y"} and subspace.inputs == frozenset()
    assert verify_policy(scm, res.policy, {"Y"}) <= 1e-6


def test_pipeline_exhaustion_no_instrument():
    case = fixtures.diagram_fixture("highway_opaque")
    scm = fixtures.scm_fixture("highway_xor")
    res = imitate_pipeline(case.diagram, case.space, observational(scm), "Y")
    assert res.status == "no-instrument-found"
    assert res.policy is None


def test_pipeline_latent_reward_instrument():
    case = fixtures.diagram_fixture("frontdoor_latent")
    for seed in range(30):
        scm = random_frontdoor(seed)
        res = imitate_pipeline(case.diagram, case.space, observational(scm), "Y")
        alpha = mix_alpha(scm)
        if 0.0 <= alpha <= 1.0:
            assert res.status == "p-imitable"
            surrogate, subspace = res.witness
            assert surrogate == {"S"} and subspace.inputs == frozenset()
            assert verify_policy(scm, res.policy, {"Y"}) < 1e-6
        else:
            assert res.status == "infeasible"
            assert res.residual > 1e-6


def test_pipeline_report_shape():
    case = fixtures.diagram_fixture("frontdoor_observed")
    res = imitate_pipeline(case.diagram, case.space,
                           observational(fixtures.scm_fixture("frontdoor_mix")), "Y")
    report = res.report()
    assert report.startswith("status p-imitable\n")
    assert "witness surrogate Y subspace_inputs -" in report
    assert "policy X given -" in report


def test_graphical_verdict():
    case = fixtures.diagram_fixture("highway_opaque")
    assert graphical_verdict(case.diagram, case.space, "Y") == ("not-imitable-graphical", None)
    case = fixtures.diagram_fixture("highway_adjustable")
    assert graphical_verdict(case.diagram, case.space, "Y") == ("imitable-graphical", frozenset({"Z"}))


# ------------------------------------------------------- instruments against the definition

def test_instruments_meet_the_paper_definition():
    # each (subspace, surrogate) the search yields is an instrument by the
    # paper's definition, yielded once, with identify_policy's formula
    from causal_imitation.diagram import validate_space
    from oracles import is_instrument, random_diagram

    rng = np.random.default_rng(31)
    yielded = 0
    for trial in range(200):
        d = random_diagram(rng, int(rng.integers(5, 9)), latent_fraction=0.3)
        obs_nodes = sorted(d.observed)
        candidates = [(x, y) for x in obs_nodes for y in sorted(d.descendants({x}, False))]
        if not candidates:
            continue
        action, reward = candidates[int(rng.integers(len(candidates)))]
        eligible = [z for z in obs_nodes if z not in (action, reward)
                    and not validate_space(d, PolicySpace.create(action, {z}))]
        space = PolicySpace.create(action, {z for z in eligible if rng.uniform() < 0.6})
        seen = set()
        for subspace, surrogate, formula in instruments(d, space, reward):
            assert is_instrument(d, space, reward, surrogate, subspace), trial
            assert (subspace, surrogate) not in seen, trial
            seen.add((subspace, surrogate))
            assert formula == identify_policy(d, subspace, surrogate), trial
        yielded += len(seen)
    assert yielded > 150


# ------------------------------------------------------- monotonicity and transfer

def test_surrogate_feasibility_is_monotone_under_subsets():
    # feasibility for a superset surrogate implies feasibility for the
    # subset: P(s,w|do(pi)) = P(s,w) marginalizes
    case = fixtures.diagram_fixture("frontdoor_latent")
    sub = PolicySpace.create("X", ())
    f_small = identify_policy(case.diagram, sub, {"S"})
    f_big = identify_policy(case.diagram, sub, {"S", "W"})
    small_only = 0
    for seed in range(40):
        obs = observational(random_frontdoor(seed))
        _policy, _residual, r_small = solve_policy(f_small, obs, 1e-8)
        _policy, _residual, r_big = solve_policy(f_big, obs, 1e-8)
        if r_big:
            assert r_small
        if r_small and not r_big:
            small_only += 1
    assert small_only > 0  # minimality genuinely matters


def test_surrogate_match_transfers_to_reward():
    # imitating the surrogate imitates the latent reward
    for seed in range(40):
        scm = random_frontdoor(seed)
        obs = observational(scm)
        solved, _residual, found = solve_policy(_frontdoor_formula(), obs, 1e-9)
        if found:
            assert verify_policy(scm, solved, {"Y"}) < 1e-8


def test_pipeline_trivial_when_action_cannot_reach_reward():
    # confounded with, but unaffected by, the action: the empty surrogate
    # screens the decision node off and any policy imitates
    from causal_imitation.diagram import CausalDiagram

    d = CausalDiagram.create(observed="WX", latent="Y",
                             directed=[("X", "W")], bidirected=[("X", "Y")])
    space = PolicySpace.create("X", ())
    scm = random_scm(d, seed=0)
    res = imitate_pipeline(d, space, observational(scm), "Y")
    assert res.status == "p-imitable"
    surrogate, _subspace = res.witness
    assert surrogate == frozenset()
    assert verify_policy(scm, res.policy, {"Y"}) < 1e-9


def test_pipeline_passes_over_an_instrument_undefined_on_the_table():
    # 50 samples leave some (A, B, C) row of this table empty, so the first
    # instrument's P(F|A,B,C) is undefined; the search moves on, and the
    # second instrument (no policy inputs) matches the table
    from causal_imitation.diagram import CausalDiagram

    d = CausalDiagram.create(observed="ABCDEF", latent=(),
                             directed=[("A", "D"), ("A", "E"), ("A", "F"), ("B", "F"), ("C", "F"), ("D", "E")],
                             bidirected=[("A", "B"), ("B", "E")])
    space = PolicySpace.create("D", {"F"})
    table = empirical_observational(random_scm(d, seed=746), 50, np.random.SeedSequence(746))
    tolerance = imitate._sampled_tolerance(50)
    (sub1, s1, f1), (sub2, s2, _f2) = instruments(d, space, "E")
    _policy, residual, found = solve_policy(f1, table, tolerance)
    assert sub1.inputs == {"F"} and not found and np.isnan(residual)
    res = imitate_pipeline(d, space, table, "E", tolerance)
    assert res.status == "p-imitable" and res.witness == (s2, sub2) and sub2.inputs == frozenset()
    assert res.residual <= tolerance


def test_pipeline_refuses_a_batched_table(monkeypatch):
    # the pipeline decides one table: on a batch of two frontdoor tables it
    # would read instance 0's (None, residual) pair as a policy, so the
    # batch is refused before the graphical criteria run
    batch = random_frontdoor([np.random.SeedSequence(entropy=0, spawn_key=(i,)) for i in range(2)])
    case = fixtures.diagram_fixture("frontdoor_latent")
    monkeypatch.setattr(imitate, "graphical_verdict", lambda *args: pytest.fail("the criteria ran"))
    with pytest.raises(ValueError, match="one table, not a batch"):
        imitate_pipeline(case.diagram, case.space, observational(batch), case.reward)


def test_pipeline_sound_on_random_environments():
    # whenever the pipeline hands back a policy from exact tables, that
    # policy imitates the reward in the generating model
    from causal_imitation.diagram import validate_space
    from oracles import random_diagram

    rng = np.random.default_rng(99)
    returned = 0
    for trial in range(60):
        d = random_diagram(rng, int(rng.integers(3, 6)), latent_fraction=0.3)
        obs_nodes = sorted(d.observed)
        candidates = [(x, y) for x in obs_nodes for y in sorted(d.descendants({x}, False))
                      if y != x]
        if not candidates:
            continue
        action, reward = candidates[int(rng.integers(len(candidates)))]
        eligible = [z for z in obs_nodes if z not in (action, reward)
                    and not validate_space(d, PolicySpace.create(action, {z}))]
        space = PolicySpace.create(action, {z for z in eligible if rng.uniform() < 0.6})
        scm = random_scm(d, seed=trial)
        res = imitate_pipeline(d, space, observational(scm), reward)
        if res.policy is not None:
            returned += 1
            assert verify_policy(scm, res.policy, {reward}) <= 1e-6, trial
    assert returned > 10


def test_pipeline_sound_on_larger_random_environments():
    # the same soundness check on 8-10 node diagrams
    from causal_imitation.diagram import validate_space
    from oracles import random_diagram

    rng = np.random.default_rng(99)
    returned = 0
    for trial in range(60):
        d = random_diagram(rng, int(rng.integers(8, 11)), p_bi=0.1, latent_fraction=0.3)
        obs_nodes = sorted(d.observed)
        candidates = [(x, y) for x in obs_nodes for y in sorted(d.descendants({x}, False))
                      if y != x]
        if not candidates:
            continue
        action, reward = candidates[int(rng.integers(len(candidates)))]
        eligible = [z for z in obs_nodes if z not in (action, reward)
                    and not validate_space(d, PolicySpace.create(action, {z}))]
        space = PolicySpace.create(action, {z for z in eligible if rng.uniform() < 0.6})
        scm = random_scm(d, seed=trial)
        res = imitate_pipeline(d, space, observational(scm), reward)
        if res.policy is not None:
            returned += 1
            assert verify_policy(scm, res.policy, {reward}) <= 1e-6, trial
    assert returned >= 30
