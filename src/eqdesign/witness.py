"""Closed-form reward constructions that install a target behavior.

The central object is the witness utility: each player is paid the value of
their conditional opponent distribution, L2-normalized per own action.  Its
strictness margins have an exact cosine form, which also yields the maximum
margin ``gamma`` attainable per concept and the epsilon-strict scalings.
Markov targets get a backward-induction variant whose rewards cancel the
continuation value so that every stage inherits the normal-form margins; all
stages' utilities come at once from the policy's conditional table.  The
epsilon-strict witness exists only in that form: a one-shot target takes it
on its one-stage embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .games import (
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    RewardFunction,
)
from .installability import (
    Concept,
    DeviationClass,
    check,
    check_markov,
    deviation_mask,
    require,
    stage_reports,
)


class InfeasibleEpsilonError(ValueError):
    """Requested strictness exceeds what the target and bound allow; carries
    the max, which is 0 for a target that admits no margin at all.  It is
    the ``__cause__`` of the :class:`StageCheckError` naming the stage."""

    def __init__(self, message: str, max_gap: float):
        super().__init__(message)
        self.max_gap = max_gap


class StageCheckError(ValueError):
    """A Markov construction hit a stage that fails its precondition."""

    def __init__(self, message: str, stage: tuple[int, int]):
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class EpsilonConfig:
    """Parameters of an epsilon-strict construction."""

    epsilon: float
    bound: float
    deviation_class: DeviationClass = DeviationClass.UNRESTRICTED

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon {self.epsilon} must be finite and >= 0")
        if not (math.isfinite(self.bound) and self.bound > 0.0):
            raise ValueError(f"bound {self.bound} must be finite and > 0")


class GammaResult(NamedTuple):
    """Maximum unit-bound strictness margin; zero-flagged when unattainable."""

    value: float
    installable: bool


def _unit_rows(conds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2 row norms and L2-normalized rows (zero rows stay zero), over any
    leading axes."""
    norms = np.linalg.norm(conds, axis=-1)[..., None]
    units = np.divide(conds, norms, out=np.zeros_like(conds), where=norms > 0.0)
    return norms[..., 0], units


def _witness_field(table, counts: tuple[int, ...]) -> np.ndarray:
    """Witness utility of every stage in a conditional table, shaped
    ``(num_players, *leading axes, *counts)``."""
    lead = table[0][0].shape[:-1]
    out = np.empty((len(counts),) + lead + counts)
    for i, (_, conds) in enumerate(table):
        other = counts[:i] + counts[i + 1 :]
        shaped = _unit_rows(conds)[1].reshape(lead + (counts[i],) + other)
        out[i] = np.moveaxis(shaped, len(lead), len(lead) + i)
    return out


def witness_utility(sigma: JointMixedStrategy) -> np.ndarray:
    """Utility tensor paying each player their L2-normalized conditional.

    ``u[i, a] = sigma_cond(i, a_i)(a_{-i}) / ||sigma_cond(i, a_i)||_2`` for
    supported own actions; rows of unsupported actions are identically zero.
    Shape ``(num_players, *action_counts)``.
    """
    return _witness_field(sigma.conditional_table, sigma.action_counts)


def _gamma_values(table, concept: Concept) -> np.ndarray:
    """Unit-bound CE or CCE margin of every stage in a conditional table,
    with no installability check."""
    best = np.full(table[0][0].shape[:-1], math.inf)
    for p, conds in table:
        norms, units = _unit_rows(conds)
        gaps = 1.0 - np.minimum(np.maximum(units @ units.swapaxes(-1, -2), -1.0), 1.0)
        if concept == Concept.CE:
            # gaps[..., j, k] for supported j and every k != j.
            gaps = norms[..., None] * gaps
        else:
            # Mass-weighted over supported j, per genuine deviation m.
            weights = np.where(p > 0.0, norms * p, 0.0)[..., None, :]
            gaps = (weights @ gaps)[..., 0, :]
        gaps = np.where(deviation_mask(p, concept), gaps, math.inf)
        best = np.minimum(best, gaps.reshape(best.shape + (-1,)).min(axis=-1))
    return best


def gamma_ce(sigma: JointMixedStrategy) -> GammaResult:
    """Largest strictness margin any unit-bound correlated witness achieves.

    Minimum over players, supported actions j, and alternatives k != j of
    ``||cond_j||_2 (1 - cos(cond_j, cond_k))``.  Returns a zero value with a
    cleared flag when the target is not installable.
    """
    if not check(sigma, Concept.CE).installable:
        return GammaResult(0.0, False)
    return GammaResult(float(_gamma_values(sigma.conditional_table, Concept.CE)), True)


def gamma_cce(sigma: JointMixedStrategy) -> GammaResult:
    """Largest coarse strictness margin at unit bound (mass-weighted form).

    Minimum over players i and genuine deviations m of
    ``sum_j p_ij ||cond_j||_2 (1 - cos(cond_j, cond_m))``.  A player whose
    whole mass sits on one action contributes no constraint for that action.
    """
    if not check(sigma, Concept.CCE).installable:
        return GammaResult(0.0, False)
    return GammaResult(float(_gamma_values(sigma.conditional_table, Concept.CCE)), True)


def _cancel_continuation(
    policy: MarkovPolicy,
    skeleton: MarkovGameSkeleton,
    stage_u: np.ndarray,
    bound: float,
) -> RewardFunction:
    """Rewards whose on-path action values at every ``(h, s)`` equal the
    stage utility ``stage_u[:, h, s]``: backward induction subtracts each
    stage's expected continuation value, then clips to the bound."""
    n = skeleton.num_players
    horizon, num_s = skeleton.horizon, skeleton.num_states
    rewards = np.zeros((n, horizon, num_s) + skeleton.action_counts)
    values = np.zeros((n, horizon + 1, num_s))
    action_axes = tuple(range(2, 2 + n))
    for h in range(horizon - 1, -1, -1):
        # Expected next-stage value per state and joint action, per player.
        ev = skeleton.transitions[h] @ values[:, h + 1].T
        rewards[:, h] = stage_u[:, h] - np.moveaxis(ev, -1, 0)
        values[:, h] = np.sum(policy.stages[h] * stage_u[:, h], axis=action_axes)
    np.clip(rewards, -bound, bound, out=rewards)
    return RewardFunction(rewards=rewards, bound=bound)


def markov_witness(
    policy: MarkovPolicy,
    skeleton: MarkovGameSkeleton,
    bound: float,
    concept: Concept = Concept.CCE,
) -> RewardFunction:
    """Stage rewards installing a stage-installable Markov policy.

    Each stage pays half the bound times the normal-form witness field (the
    L2-normalized conditional rows), minus the expected continuation value;
    the subtraction makes every stage's action values coincide with a scaled
    one-shot witness, so strictness margins are per-stage.  Rewards stay
    within ``bound`` and the induced values within ``bound / 2``.
    """
    policy.check_fits(skeleton)
    if not (math.isfinite(bound) and bound > 0.0):
        raise ValueError(f"bound {bound} must be finite and > 0")
    verdict = check_markov(policy, concept)
    if not verdict.installable:
        bad = min(hs for hs, rep in verdict.stages.items() if not rep.installable)
        raise StageCheckError(
            f"stage (h={bad[0]}, s={bad[1]}) is not "
            f"{concept.value}-installable",
            stage=bad,
        )
    stage_u = _witness_field(policy.conditional_table, policy.action_counts)
    return _cancel_continuation(policy, skeleton, 0.5 * bound * stage_u, bound)


def epsilon_markov_witness(
    policy: MarkovPolicy,
    skeleton: MarkovGameSkeleton,
    concept: Concept,
    config: EpsilonConfig,
) -> RewardFunction:
    """Per-stage epsilon-strict rewards for a Markov policy.

    Each stage utility is bounded by ``b = B / min(H, 2)``, and continuation
    values are subtracted exactly as in :func:`markov_witness`, so each
    stage's measured margin is that of its stage utility.  A reward is its
    stage utility minus the next stage's on-path value, both within ``b``,
    so it stays within ``B``:

    - NE: pure stages only, paid ``b`` on the target profile and ``-b``
      elsewhere; requires ``epsilon < 2 * b`` and a deviation class that
      rules out replaying the target.
    - CE (never-recommended class) and CCE: the witness utility scaled by
      ``epsilon / gamma``, capped at ``b``; requires ``epsilon <= b * gamma``.
      CCE also demands that every player with spare actions hold two
      supported actions with differing conditionals, since its guarantee
      covers unrestricted deviations.

    A one-shot target is its one-stage embedding (:func:`nfg_as_markov`,
    :func:`strategy_as_policy`), where ``b = B``.  The first stage in
    row-major order that cannot carry the margin raises
    :class:`StageCheckError`, whose ``__cause__`` is an
    :class:`InfeasibleEpsilonError` with that stage's largest margin (0 when
    it carries none).  A correlated NE stage, or a deviation class the
    concept does not cover, is an input error.
    """
    policy.check_fits(skeleton)
    dev = config.deviation_class
    require(concept, policy, dev)
    if concept == Concept.NE and dev == DeviationClass.UNRESTRICTED:
        raise ValueError(
            "strict Nash has no finite margin against unrestricted "
            "deviations; use the never-target class"
        )
    if concept == Concept.CE and dev != DeviationClass.NEVER_RECOMMENDED:
        raise ValueError(
            "correlated epsilon-strictness is guaranteed only for the "
            "never-recommended deviation class"
        )
    eps, bound = config.epsilon, config.bound / min(skeleton.horizon, 2)
    probs, table = policy.stages, policy.conditional_table
    counts = policy.action_counts

    def fail(k: int, message: str, max_gap: float) -> StageCheckError:
        """The error naming flat stage ``k``, caused by its infeasibility."""
        h, s = divmod(k, skeleton.num_states)
        err = StageCheckError(f"stage (h={h}, s={s}): {message}", stage=(h, s))
        err.__cause__ = InfeasibleEpsilonError(message, max_gap=max_gap)
        return err

    if concept == Concept.NE:
        # A stage is pure iff its joint support is a single profile.
        cells = np.count_nonzero(probs.reshape(-1, int(np.prod(counts))), axis=1)
        mixed = np.flatnonzero(cells != 1)
        max_gap = 2.0 * bound
        if mixed.size and (mixed[0] == 0 or eps < max_gap):
            message = "strict Nash scaling requires a pure target"
            raise fail(int(mixed[0]), message, 0.0)
        if eps >= max_gap:
            raise fail(
                0,
                f"epsilon {eps} not achievable: margin must stay below {max_gap}",
                max_gap,
            )
        fields = np.repeat(np.where(probs > 0, bound, -bound)[None], len(counts), 0)
        return _cancel_continuation(policy, skeleton, fields, config.bound)

    gammas = _gamma_values(table, concept).reshape(-1).tolist()
    alphas = []
    for k, (rep, gamma) in enumerate(zip(stage_reports(table, concept), gammas)):
        if not rep.installable:
            raise fail(k, f"target is not {concept.value}-installable", 0.0)
        # A single-support player with spare actions would let a deviator
        # replicate play exactly, so no positive margin covers unrestricted
        # deviations.  Players with one action have no deviations and are
        # exempt.
        for i, entry in enumerate(rep.evidence):
            if entry[0] == "single" and counts[i] > 1:
                raise fail(
                    k,
                    "coarse epsilon-strictness needs two supported "
                    "actions with differing conditionals for every "
                    f"player; player {i} has a single supported action",
                    0.0,
                )
        max_gap = bound * gamma
        if eps > max_gap:
            message = f"epsilon {eps} exceeds the achievable margin {max_gap}"
            raise fail(k, message, max_gap)
        # eps / gamma can round above the bound when eps is its largest
        # value, and a stage whose gamma is 0 can only be asked for eps 0.
        scaled = eps > 0.0 and math.isfinite(gamma)
        alphas.append(min(eps / gamma, bound) if scaled else 0.0)
    scale = np.reshape(alphas, probs.shape[:2] + (1,) * len(counts))
    fields = scale * _witness_field(table, counts)
    return _cancel_continuation(policy, skeleton, fields, config.bound)
