"""Desk-scale experiment drivers behind the CLI.

Both experiments are deterministic given their flags: per-instance seeds are
spawned from the base seed by instance index, and reports are assembled in
instance order however the instances are batched and wherever they run.

The frontdoor study finds its instrument once per process and cuts its
instances once, into ``ceil(models / _CHUNK)`` contiguous batches.  It runs
them in its own process when there is one batch or one usable CPU, and
otherwise on a pool of one process per usable CPU, at most one per batch.
Each instance draws its numbers from its own seed, and a batch's models,
joints, tables, linear systems, cloning policies and L1 distances are
stacked along a leading axis and computed as array operations, each
instance with the bits it would get alone.  Only the LPs run one instance
at a time.  A batch returns its flags and L1 distances as three arrays, and
the report is built from them.
"""
from __future__ import annotations

import os
from functools import lru_cache

# scm comes first, ahead of numpy and the rest of the package, as in imitate.py
from .scm import (
    Policy,
    conditional_policy,
    empirical_observational,
    intervene,
    joint,
    observational,
    random_frontdoor,
)

import numpy as np

from . import fixtures
from .diagram import CausalDiagram
from .enumerators import instruments
from .identify import IdFormula
from .imitate import _l1_to_expert, _sampled_tolerance, solve_policy


# most instances in a study batch: a batch's arrays, tables and policies
# are freed before the next batch is drawn.  Batches of 256 to 4096
# instances time the same on a 5000-instance study (2-core x86 box).
_CHUNK = 1024


@lru_cache(maxsize=1)
def frontdoor_instrument() -> tuple[IdFormula, CausalDiagram]:
    """Formula of the first instrument the search finds for the
    latent-reward mediator chain, whose free variables are its surrogate,
    and its diagram: the parse and the search run once per process, for
    every instance of the study."""
    case = fixtures.diagram_fixture("frontdoor_latent")
    for _subspace, _surrogate, formula in instruments(case.diagram, case.space, case.reward):
        return formula, case.diagram
    raise RuntimeError("no instrument found for the mediator-chain fixture")


def _frontdoor_batch(args: tuple[int, int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per instance in ``range(start, stop)``, as three arrays computed as
    one batch: whether its exact table is p-imitable, and the reward L1 of
    the solved policy (NaN when unsolved) and of behavior cloning.  A table
    on which the formula divides by an empty cell is unsolved."""
    base_seed, start, stop, samples = args
    formula, _diagram = frontdoor_instrument()
    indices = range(start, stop)
    models = random_frontdoor([np.random.SeedSequence(entropy=base_seed, spawn_key=(i,)) for i in indices])
    # one exact joint gives the observed tables and the expert's reward
    full = joint(models)
    exact = full.marginal(models.diagram.observed)
    expert = full.marginal(("Y",))
    policy, _residual, p_imitable = solve_policy(formula, exact, 1e-9)
    if samples:
        seeds = [np.random.SeedSequence(entropy=base_seed, spawn_key=(i, 1)) for i in indices]
        table = empirical_observational(models, samples, seeds)
        policy, _residual, found = solve_policy(formula, table, _sampled_tolerance(samples))
    else:
        table, found = exact, p_imitable
    cloning = conditional_policy(table, "X", ())
    # the solved policy, with the cloning row where unsolved, and the cloning
    # policy make one batch of shape (2, n) against the models' batch (n,)
    both = Policy(cloning.action, cloning.inputs, np.stack([policy.probs, cloning.probs]))
    l1_ci, l1_bc = _l1_to_expert(models, expert, both)
    return p_imitable, np.where(found, l1_ci, np.nan), l1_bc


def frontdoor_study(models: int, samples: int = 0, seed: int = 0) -> str:
    """Random binary mediator-chain study: per-model p-imitability flag and
    the reward L1 of the solved policy versus behavior cloning."""
    if models < 1:
        raise ValueError("models must be >= 1")
    count = -(-models // _CHUNK)
    cuts = [models * b // count for b in range(count + 1)]
    args = [(seed, start, stop, samples) for start, stop in zip(cuts, cuts[1:])]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # a fork pool starts every process at once: no more than the usable
    # CPUs, and none without a batch to run
    processes = min(count, cpus)
    if processes > 1:
        # imported here, so that a study without a pool does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            batches = list(pool.map(_frontdoor_batch, args))
    else:
        batches = list(map(_frontdoor_batch, args))
    flags, l1_ci, l1_bc = (np.concatenate(column) for column in zip(*batches))
    lines = [
        f"# frontdoor-study models={models} samples={samples} seed={seed}",
        "# columns: instance p_imitable l1_ci l1_bc",
        "# mean_l1_ci averages the solved instances; mean_l1_bc averages all",
    ]
    for index, (flag, ci, bc) in enumerate(zip(flags, l1_ci, l1_bc)):
        ci = "-" if np.isnan(ci) else f"{ci:.10f}"
        lines.append(f"{index} {int(flag)} {ci} {bc:.10f}")
    solved = l1_ci[~np.isnan(l1_ci)]
    lines.append(f"# fraction_p_imitable {np.mean(flags):.10f}")
    if solved.size:
        lines.append(f"# mean_l1_ci {np.mean(solved):.10f}")
    lines.append(f"# mean_l1_bc {np.mean(l1_bc):.10f}")
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
