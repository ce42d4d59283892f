"""LP-based reward design: minimal-cost rewards that install a target.

Builds one linear program per request whose unknowns are the rewards, boxed
by the bound, plus at most one auxiliary column for the cost.  With the
target policy fixed, action and state values are linear in the rewards, so
every deviation constraint is a single strictness row over rewards: its
weights on its own stage's rewards and their occupancy, carried forward
through the transitions and the policy, on every later stage's.  One
forward pass, the verifier's ``_forward`` that :func:`visitation` also
runs, builds every row.  The weights of every stage come at once from the
policy's stage arrays and conditional table, over the deviations
:func:`~eqdesign.installability.deviation_mask` names; they depend on the
policy alone and are kept on it.  The L1 costs write each reward as
``base + d+ - d-`` with bounded deviation columns ``d+`` and ``d-`` in place
of the rewards, so their programs have the strictness rows alone.  A
normal-form game is designed as its one-stage, one-state Markov embedding.

Costs: ``ONLINE`` weights reward changes by the target's visitation measure,
``OFFLINE`` counts them unweighted, ``SOCIAL_WELFARE`` maximizes the sum of
initial-state values, ``EGALITARIAN`` maximizes the worst player's value.
Every optimal design is re-measured by the verifier before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .games import (
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    NormalFormGame,
    RewardFunction,
    ShapeError,
    nfg_as_markov,
    strategy_as_policy,
)
from .installability import Concept, DeviationClass, deviation_mask, require
from .lp import LinearProgram, LpStatus, solve
from .verify import GapReport, _forward, check_strict, policy_eval, visitation

# Post-solve verification allows this much slip below the requested slack.
GAP_SLIP = 1e-6


class CostKind(str, Enum):
    ONLINE = "online"
    OFFLINE = "offline"
    SOCIAL_WELFARE = "social"
    EGALITARIAN = "egalitarian"


@dataclass(frozen=True)
class CostSpec:
    """Objective choice.  The modification costs measure the distance from
    the game's ``baseline_reward``, or from all zeros when it has none."""

    kind: CostKind


@dataclass(frozen=True)
class DesignConfig:
    """Strictness slack, reward box bound, and the max-gap switch.

    With ``max_gap`` set the cost is ignored; the slack becomes a variable
    and the program maximizes it, reporting the best margin the bound buys.
    """

    slack: float
    bound: float
    max_gap: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bound) and self.bound > 0.0):
            raise ValueError(f"bound {self.bound} must be finite and > 0")
        if not self.max_gap and not (
            math.isfinite(self.slack) and self.slack >= 0.0
        ):
            raise ValueError(f"slack {self.slack} must be finite and >= 0")


@dataclass(frozen=True)
class DesignResult:
    """Solve outcome.  ``reward`` is set only when status is optimal, and
    ``utility``, its one stage shaped like the game's utility, only then on
    a normal-form game; ``achieved_slack`` only in max-gap mode.
    ``report`` holds the verifier's post-solve measurement; ``iterations``
    and ``phase_steps`` are the solver's steps, in total and as (dual,
    primal) phases."""

    status: LpStatus
    concept: Concept
    cost: CostKind
    objective: Optional[float] = None
    reward: Optional[RewardFunction] = None
    utility: Optional[np.ndarray] = None
    achieved_slack: Optional[float] = None
    report: Optional[GapReport] = None
    iterations: int = 0
    phase_steps: tuple[int, int] = (0, 0)


def _strict_weights(
    policy: MarkovPolicy, concept: Concept
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The strictness constraints the concept measures, as ``(stage, state,
    player, weights)`` in (stage, state, player, constraint) order: where
    each sits, whose rewards it reads, and its weights over that stage's
    flat joint actions."""
    stages, counts = policy.stages, policy.action_counts
    horizon, num_s, n = policy.horizon, policy.num_states, len(counts)
    ce = concept == Concept.CE
    width = max(counts) ** (2 if ce else 1)
    weights = np.zeros((horizon, num_s, n, width, stages[0, 0].size))
    keep = np.zeros(weights.shape[:-1], dtype=bool)
    for i, c in enumerate(counts):
        # e[m] is the indicator of a_i == m over the joint action axes.
        e = np.eye(c).reshape((c,) + tuple(c if j == i else 1 for j in range(n)))
        if ce:
            # Weights (e_j - e_k) x the conditional given j, not raw joint
            # mass, so row slack is on the verifier's per-recommendation scale.
            p, conds = policy.conditional_table[i]
            cond = conds.reshape(p.shape + counts[:i] + (1,) + counts[i + 1 :])
            w = (e[:, None] - e) * cond[:, :, :, None]
        else:  # the target minus e_m x the opponents' marginal
            p = policy.marginal(i)
            marg = stages.sum(axis=2 + i, keepdims=True)
            w = stages[:, :, None] - e * marg[:, :, None]
        ok = deviation_mask(p, concept).reshape(horizon, num_s, -1)
        keep[:, :, i, : ok.shape[2]] = ok
        weights[:, :, i, : ok.shape[2]] = w.reshape(ok.shape + (-1,))
    return np.nonzero(keep)[:3] + (weights[keep],)


def build_mg_lp(
    skeleton: MarkovGameSkeleton,
    policy: MarkovPolicy,
    concept: Concept,
    cost: CostSpec,
    config: DesignConfig,
) -> tuple[LinearProgram, dict]:
    """Assemble the design program over the reward tensor.

    Returns the program and a layout dict.  The rewards, flattened from
    ``layout["shape"]``, are the first columns, except under an L1 cost,
    where the first two blocks are ``d+`` and ``d-`` and the reward is
    ``layout["baseline"] + d+ - d-``, with the game's baseline reward
    flattened there (None under the other costs).
    ``layout["slack_col"]`` is the margin column in max-gap mode.
    """
    policy.check_fits(skeleton)
    n = skeleton.num_players
    horizon, num_s = skeleton.horizon, skeleton.num_states
    counts = skeleton.action_counts
    num_a = math.prod(counts)
    require(concept, policy)

    size = horizon * num_s * num_a  # one player's rewards
    blk = n * size
    shape = (n, horizon, num_s) + counts
    l1 = cost.kind in (CostKind.ONLINE, CostKind.OFFLINE) and not config.max_gap
    bound = config.bound
    if l1:
        # r = base + d+ - d-, with d+ the first block and d- the second; the
        # bounds keep r in the box whatever the baseline.
        base = skeleton.baseline_reward
        base = (np.zeros(shape) if base is None else base).reshape(-1)
        lower = np.concatenate(
            [np.maximum(0.0, -bound - base), np.maximum(0.0, base - bound)]
        )
        upper = np.concatenate(
            [np.maximum(0.0, bound - base), np.maximum(0.0, bound + base)]
        )
    else:
        base = None
        lower, upper = np.full(blk, -bound), np.full(blk, bound)
    # One auxiliary column after the rewards: the max-gap margin, or the
    # egalitarian z (max-gap overrides the cost, so never both); it is free.
    aux = lower.size
    egalitarian = cost.kind == CostKind.EGALITARIAN and not config.max_gap
    if config.max_gap or egalitarian:
        lower, upper = np.append(lower, -math.inf), np.append(upper, math.inf)

    # A row puts its weights on its own stage's rewards and their occupancy,
    # carried forward by the policy, on every later stage's.
    stage, state, players, weights = policy.derived(_strict_weights, concept)
    coeffs = np.zeros((players.size, horizon, num_s, num_a))
    coeffs[np.arange(players.size), stage, state] = weights
    coeffs = _forward(skeleton, policy, coeffs).reshape(players.size, size)
    rhs = np.full(players.size, 0.0 if config.max_gap else config.slack)
    if l1:
        # A batched product rounds as a per-row dot product; einsum would not.
        rhs -= (coeffs[:, None] @ base.reshape(n, size)[players, :, None])[:, 0, 0]

    objective = np.zeros(lower.size)
    if config.max_gap:
        objective[aux] = -1.0
    elif cost.kind == CostKind.OFFLINE:
        objective[:aux] = 1.0
    else:
        # A reward entry's visitation is its weight in the online cost and
        # in its player's expected initial value.
        mu = np.tile(visitation(skeleton, policy).reshape(-1), n)
        if cost.kind == CostKind.ONLINE:
            objective[:aux] = np.tile(mu, 2)
        elif cost.kind == CostKind.SOCIAL_WELFARE:
            objective[:aux] = -mu
        else:
            objective[aux] = -1.0
            # z <= each player's expected initial value.
            players = np.concatenate([players, np.arange(n)])
            coeffs = np.concatenate([coeffs, mu.reshape(n, size)])
            rhs = np.concatenate([rhs, np.zeros(n)])

    # ``blocks`` views the reward (or d+, d-) columns as (row, block, entry):
    # a row's block goes to its player's block, and under L1, negated, to d-.
    rows = np.zeros((players.size, lower.size))
    grid, step = (players.size, lower.size // size, size), rows.itemsize
    blocks = as_strided(rows, grid, (rows.strides[0], size * step, step))
    at = np.arange(players.size)
    blocks[at, players] = coeffs
    if l1:
        blocks[at, n + players] = -coeffs
    del coeffs  # freed before LinearProgram copies the rows
    if config.max_gap:
        rows[:, aux] = -1.0
    elif egalitarian:
        rows[-n:, aux] = -1.0
    lp = LinearProgram(objective, rows, ">=", rhs, lower, upper)
    layout = {
        "slack_col": aux if config.max_gap else None,
        "shape": shape,
        "baseline": base,
    }
    return lp, layout


def build_nfg_lp(
    sigma: JointMixedStrategy,
    concept: Concept,
    cost: CostSpec,
    config: DesignConfig,
    baseline: Optional[np.ndarray] = None,
) -> tuple[LinearProgram, dict]:
    """The one-stage design program: :func:`build_mg_lp` on the embedding of
    ``sigma``, with ``baseline`` (shaped like a game's utility), else zeros,
    as the utility to modify."""
    game = NormalFormGame(
        tuple(tuple(range(c)) for c in sigma.action_counts),
        np.zeros((sigma.num_players,) + sigma.action_counts)
        if baseline is None
        else baseline,
    )
    return build_mg_lp(
        nfg_as_markov(game), strategy_as_policy(sigma), concept, cost, config
    )


def design(
    game: Union[MarkovGameSkeleton, NormalFormGame],
    target: Union[MarkovPolicy, JointMixedStrategy],
    concept: Concept,
    cost: CostSpec,
    config: DesignConfig,
) -> DesignResult:
    """Build, solve, extract, and verify one design program.

    Accepts a Markov game with a Markov policy or a normal-form game with a
    joint strategy.  The latter is designed as its one-stage embedding
    (:func:`nfg_as_markov`, :func:`strategy_as_policy`), whose baseline
    reward is the game's utility, and its result also carries the designed
    ``utility``.  The modification costs run from the game's baseline; to
    design from another, pass a game carrying it.  Every optimal design is
    measured by :func:`check_strict`, the one post-solve verifier; a design
    that misses its margin is a :class:`RuntimeError`.  Non-optimal statuses
    return without tensors.
    """
    one_shot = isinstance(game, NormalFormGame)
    if one_shot:
        if not isinstance(target, JointMixedStrategy):
            raise ShapeError("normal-form design expects a joint strategy")
        game, target = nfg_as_markov(game), strategy_as_policy(target)
    elif not isinstance(target, MarkovPolicy):
        raise ShapeError("Markov design expects a Markov policy")
    built = build_mg_lp(game, target, concept, cost, config)
    return _solve_design(game, target, concept, cost, config, built, one_shot)


def _solve_design(
    skeleton: MarkovGameSkeleton,
    policy: MarkovPolicy,
    concept: Concept,
    cost: CostSpec,
    config: DesignConfig,
    built: tuple[LinearProgram, dict],
    one_shot: bool = False,
) -> DesignResult:
    """Solve, extract, and verify the program :func:`build_mg_lp` built for
    these arguments; ``one_shot`` also sets the result's ``utility``."""
    lp, layout = built
    sol = solve(lp)
    if sol.status != LpStatus.OPTIMAL:
        return DesignResult(
            sol.status,
            concept,
            cost.kind,
            iterations=sol.iterations,
            phase_steps=sol.phase_steps,
        )
    shape = layout["shape"]
    blk = math.prod(shape)
    flat = sol.x[:blk]
    if layout["baseline"] is not None:
        flat = layout["baseline"] + flat - sol.x[blk : 2 * blk]
    rewards = np.clip(flat.reshape(shape), -config.bound, config.bound)
    reward = RewardFunction(rewards=rewards, bound=config.bound)
    achieved = float(sol.x[layout["slack_col"]]) if config.max_gap else None
    required = achieved if config.max_gap else config.slack
    ce = concept == Concept.CE
    dev = DeviationClass.NEVER_RECOMMENDED if ce else DeviationClass.UNRESTRICTED
    report = check_strict(skeleton, reward, policy, concept, dev_class=dev)
    if report.min_gap < required - GAP_SLIP:
        raise RuntimeError(
            f"designed reward missed its margin: {report.min_gap} < {required}"
        )
    return DesignResult(
        sol.status,
        concept,
        cost.kind,
        objective=sol.objective,
        reward=reward,
        utility=reward.rewards[:, 0, 0] if one_shot else None,
        achieved_slack=achieved,
        report=report,
        iterations=sol.iterations,
        phase_steps=sol.phase_steps,
    )


def evaluate_cost(
    skeleton: MarkovGameSkeleton,
    policy: MarkovPolicy,
    cost: CostSpec,
    reward: RewardFunction,
) -> float:
    """Recompute a design's cost directly from tensors (no LP involved);
    the modification costs run from the game's baseline reward, as in
    :func:`design`."""
    if cost.kind in (CostKind.ONLINE, CostKind.OFFLINE):
        base = skeleton.baseline_reward
        diff = np.abs(reward.rewards - (0.0 if base is None else base))
        if cost.kind == CostKind.OFFLINE:
            return float(diff.sum())
        mu = visitation(skeleton, policy)
        return float((diff * mu[None]).sum())
    values = policy_eval(skeleton, reward, policy)
    per_player = values.v[:, 0, :] @ skeleton.initial_dist
    if cost.kind == CostKind.SOCIAL_WELFARE:
        return float(-per_player.sum())
    return float(-per_player.min())
