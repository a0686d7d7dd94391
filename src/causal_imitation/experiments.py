"""Desk-scale experiment drivers behind the CLI.

Both experiments are deterministic given their flags: per-instance seeds are
spawned from the base seed by instance index, and reports are assembled in
instance order regardless of worker count.
"""
from __future__ import annotations

import numpy as np

from . import fixtures
from .identify import IdFormula
from .imitate import _l1_to_expert, _sampled_tolerance, instruments, solve_policy
from .scm import (
    Policy,
    conditional_policy,
    empirical_observational,
    intervene,
    joint,
    observational,
    random_frontdoor,
)


def frontdoor_instrument() -> tuple[IdFormula, frozenset[str]]:
    """Formula and surrogate of the first instrument the search finds for
    the latent-reward mediator chain; every instance of the study uses it."""
    case = fixtures.diagram_fixture("frontdoor_latent")
    for _subspace, surrogate, formula in instruments(case.diagram, case.space, case.reward):
        return formula, surrogate
    raise RuntimeError("no instrument found for the mediator-chain fixture")


def _frontdoor_instance(
    args: tuple[IdFormula, frozenset[str], int, int, int],
) -> tuple[int, bool, float | None, float]:
    formula, surrogate, base_seed, index, samples = args
    scm_i = random_frontdoor(np.random.SeedSequence(entropy=base_seed, spawn_key=(index,)))
    # one exact joint gives the observed table and the expert's reward
    full = joint(scm_i)
    exact = full.marginal(scm_i.diagram.observed)
    expert = full.marginal(("Y",))
    exact_solution = solve_policy(formula, exact, surrogate, 1e-9)[0]
    if samples:
        table = empirical_observational(
            scm_i, samples, np.random.SeedSequence(entropy=base_seed, spawn_key=(index, 1))
        )
        solved = solve_policy(formula, table, surrogate, _sampled_tolerance(samples))[0]
    else:
        table, solved = exact, exact_solution
    l1_ci = None if solved is None else _l1_to_expert(scm_i, expert, solved)
    l1_bc = _l1_to_expert(scm_i, expert, conditional_policy(table, "X", ()))
    return index, exact_solution is not None, l1_ci, l1_bc


def frontdoor_study(models: int, samples: int = 0, seed: int = 0, workers: int = 1) -> str:
    """Random binary mediator-chain study: per-model p-imitability flag and
    the reward L1 of the solved policy versus behavior cloning."""
    if models < 1:
        raise ValueError("models must be >= 1")
    formula, surrogate = frontdoor_instrument()
    args = [(formula, surrogate, seed, i, samples) for i in range(models)]
    if workers > 1:
        # imported here, so that commands without a pool do not pay for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_frontdoor_instance, args, chunksize=max(1, models // (8 * workers))))
    else:
        rows = [_frontdoor_instance(a) for a in args]
    rows.sort(key=lambda r: r[0])
    lines = [
        f"# frontdoor-study models={models} samples={samples} seed={seed}",
        "# columns: instance p_imitable l1_ci l1_bc",
        "# mean_l1_ci averages the solved instances; mean_l1_bc averages all",
    ]
    for index, flag, l1_ci, l1_bc in rows:
        ci = f"{l1_ci:.10f}" if l1_ci is not None else "-"
        lines.append(f"{index} {int(flag)} {ci} {l1_bc:.10f}")
    flags = [flag for _, flag, _, _ in rows]
    solved = [ci for _, _, ci, _ in rows if ci is not None]
    lines.append(f"# fraction_p_imitable {np.mean(flags):.10f}")
    if solved:
        lines.append(f"# mean_l1_ci {np.mean(solved):.10f}")
    lines.append(f"# mean_l1_bc {np.mean([bc for *_, bc in rows]):.10f}")
    return "\n".join(lines) + "\n"


def highway_binary_report(samples: int = 10000, seed: int = 0) -> str:
    """Exact and sampled rewards of the two cloning policies in the binary
    aerial-traffic model: reading the side observation biases the imitator.
    """
    scm = fixtures.scm_fixture("highway_golden")
    exact = observational(scm)

    def reward(policy: Policy) -> float:
        return joint(intervene(scm, policy)).expectation("Y")

    pi_marginal = conditional_policy(exact, "X", ())
    pi_side = conditional_policy(exact, "X", ("W",))
    e1 = reward(pi_marginal)
    e2 = reward(pi_side)
    empirical = empirical_observational(scm, samples, np.random.SeedSequence(entropy=seed))
    s1 = reward(conditional_policy(empirical, "X", ()))
    s2 = reward(conditional_policy(empirical, "X", ("W",)))
    lines = [
        f"# highway-binary samples={samples} seed={seed}",
        f"exact_reward_marginal_policy {e1:.10f}",
        f"exact_reward_sideinfo_policy {e2:.10f}",
        f"exact_bias {e1 - e2:.10f}",
        f"sampled_reward_marginal_policy {s1:.10f}",
        f"sampled_reward_sideinfo_policy {s2:.10f}",
        f"sampled_bias {s1 - s2:.10f}",
    ]
    return "\n".join(lines) + "\n"
