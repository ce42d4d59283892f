"""Closed-form reward constructions that install a target behavior.

The central object is the witness utility: each player is paid the value of
their conditional opponent distribution, L2-normalized per own action.  Its
strictness margins have an exact cosine form, giving its unit-bound margin
``gamma`` (at most the max-gap design's) and the epsilon-strict scalings.
Markov targets get a variant whose rewards cancel the continuation value so
that every stage inherits the normal-form margins; all stages' utilities,
and so their on-path values, come at once from the policy's conditional
table.  The canonical and the epsilon-strict witness bound each stage's
utility by ``b = B / min(H, 2)``, so rewards stay within ``B``; a one-shot
target takes either on its one-stage embedding, where ``b = B``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .games import (
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    RewardFunction,
    strategy_as_policy,
)
from .installability import (
    Concept,
    DeviationClass,
    check_markov,
    deviation_mask,
    require,
    stage_reports,
)


class StageCheckError(ValueError):
    """A Markov construction hit a stage that fails its precondition.

    ``max_gap`` is set when the stage cannot carry a requested epsilon: the
    margin the witness reaches there, 0 when it reaches none."""

    def __init__(
        self, message: str, stage: tuple[int, int], max_gap: Optional[float] = None
    ):
        super().__init__(message)
        self.stage = stage
        self.max_gap = max_gap


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
    """The witness's unit-bound margin; zero-flagged when not installable."""

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
    ``(num_players, H, S, *counts)``."""
    lead = table[0][0].shape[:2]
    out = np.empty((len(counts),) + lead + counts)
    for i, (_, conds) in enumerate(table):
        other = counts[:i] + counts[i + 1 :]
        shaped = _unit_rows(conds)[1].reshape(lead + (counts[i],) + other)
        out[i] = np.moveaxis(shaped, 2, 2 + i)
    return out


def witness_utility(sigma: JointMixedStrategy) -> np.ndarray:
    """Utility tensor paying each player their L2-normalized conditional.

    ``u[i, a] = sigma_cond(i, a_i)(a_{-i}) / ||sigma_cond(i, a_i)||_2`` for
    supported own actions; rows of unsupported actions are identically zero.
    Shape ``(num_players, *action_counts)``.
    """
    table = strategy_as_policy(sigma).conditional_table
    return _witness_field(table, sigma.action_counts)[:, 0, 0]


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


def _gamma(sigma: JointMixedStrategy, concept: Concept) -> GammaResult:
    """Stage ``(0, 0)`` of :func:`_gamma_values` on the embedding of
    ``sigma``, or zero with a cleared flag when it is not installable."""
    policy = strategy_as_policy(sigma)
    if not check_markov(policy, concept).installable:
        return GammaResult(0.0, False)
    value = _gamma_values(policy.conditional_table, concept)[0, 0]
    return GammaResult(float(value), True)


def gamma_ce(sigma: JointMixedStrategy) -> GammaResult:
    """Strictness margin the unit-bound correlated witness achieves.

    Minimum over players, supported actions j, and alternatives k != j of
    ``||cond_j||_2 (1 - cos(cond_j, cond_k))``.  Returns a zero value with a
    cleared flag when the target is not installable.
    """
    return _gamma(sigma, Concept.CE)


def gamma_cce(sigma: JointMixedStrategy) -> GammaResult:
    """Coarse strictness margin of the unit-bound witness (mass-weighted form).

    Minimum over players i and genuine deviations m of
    ``sum_j p_ij ||cond_j||_2 (1 - cos(cond_j, cond_m))``.  A player whose
    whole mass sits on one action contributes no constraint for that action.
    """
    return _gamma(sigma, Concept.CCE)


def _cancel_continuation(
    policy: MarkovPolicy,
    skeleton: MarkovGameSkeleton,
    stage_u: np.ndarray,
    bound: float,
) -> RewardFunction:
    """Rewards whose on-path action values at every ``(h, s)`` equal the
    stage utility ``stage_u[:, h, s]``: each stage's utility minus the next
    stage's expected on-path value ``<pi, u>``, which needs no recursion,
    clipped to the bound."""
    action_axes = tuple(range(3, stage_u.ndim))
    values = np.sum(policy.stages * stage_u, axis=action_axes)
    rewards = stage_u.copy()
    for h in range(skeleton.horizon - 1):
        # Expected next-stage value per state and joint action, per player.
        ev = skeleton.transitions[h] @ values[:, h + 1].T
        rewards[:, h] -= np.moveaxis(ev, -1, 0)
    np.clip(rewards, -bound, bound, out=rewards)
    return RewardFunction(rewards=rewards, bound=bound)


def _stage_error(
    num_states: int, k: int, text: str, max_gap: Optional[float] = None
) -> StageCheckError:
    """The error naming flat stage ``k`` (row-major ``(h, s)``), with
    ``text`` right after the stage's name."""
    h, s = divmod(k, num_states)
    return StageCheckError(f"stage (h={h}, s={s}){text}", (h, s), max_gap)


def markov_witness(
    policy: MarkovPolicy,
    skeleton: MarkovGameSkeleton,
    bound: float,
    concept: Concept = Concept.CCE,
) -> RewardFunction:
    """Stage rewards installing a stage-installable Markov policy.

    Each stage pays the stage bound ``b = B / min(H, 2)`` times the
    normal-form witness field (the L2-normalized conditional rows), minus
    the expected continuation value; the subtraction makes every stage's
    action values coincide with a scaled one-shot witness, so strictness
    margins are per-stage.  Rewards stay within ``bound`` and values within
    ``b`` (``B`` on one stage); the first stage, row-major, that the concept
    cannot install raises :class:`StageCheckError`.
    """
    policy.check_fits(skeleton)
    if not (math.isfinite(bound) and bound > 0.0):
        raise ValueError(f"bound {bound} must be finite and > 0")
    require(concept, policy)
    table = policy.conditional_table
    for k, rep in enumerate(stage_reports(table, concept)):
        if not rep.installable:
            text = f" is not {concept.value}-installable"
            raise _stage_error(skeleton.num_states, k, text)
    stage_u = _witness_field(table, policy.action_counts)
    b = bound / min(skeleton.horizon, 2)
    return _cancel_continuation(policy, skeleton, b * stage_u, bound)


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
    :class:`StageCheckError` with the margin the witness reaches at that
    stage as ``max_gap`` (0 when it reaches none).  A correlated NE stage,
    or a deviation class the concept does not cover, is an input error.
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
    eps, b = config.epsilon, config.bound / min(skeleton.horizon, 2)
    probs, table, counts = policy.stages, policy.conditional_table, policy.action_counts
    nash = concept == Concept.NE
    reports = stage_reports(table, concept)
    # The Nash witness's unit-bound margin is 2: +1 on the profile, -1 off it.
    gammas = np.full(len(reports), 2.0) if nash else _gamma_values(table, concept)
    alphas = []
    for k, (rep, gamma) in enumerate(zip(reports, gammas.reshape(-1).tolist())):
        # A single-support player with spare actions would let a deviator
        # replicate play exactly, so no positive margin covers unrestricted
        # deviations.  Players with one action have no deviations and are
        # exempt.  Only CCE reports carry this evidence.
        single = [
            i for i, entry in enumerate(rep.evidence)
            if entry[0] == "single" and counts[i] > 1
        ]
        max_gap = b * gamma if rep.installable and not single else 0.0
        if not rep.installable:
            message = f"target is not {concept.value}-installable"
            if nash:  # an NE stage is installable iff it is pure
                message = "strict Nash scaling requires a pure target"
        elif single:
            message = (
                "coarse epsilon-strictness needs two supported "
                "actions with differing conditionals for every "
                f"player; player {single[0]} has a single supported action"
            )
        elif nash and eps >= max_gap:
            message = f"epsilon {eps} not achievable: margin must stay below {max_gap}"
        elif eps > max_gap:
            message = f"epsilon {eps} exceeds the achievable margin {max_gap}"
        else:
            # eps / gamma can round above the bound when eps is its largest
            # value, and a stage whose gamma is 0 can only be asked for eps 0.
            scaled = eps > 0.0 and math.isfinite(gamma)
            alphas.append(min(eps / gamma, b) if scaled else 0.0)
            continue
        raise _stage_error(skeleton.num_states, k, f": {message}", max_gap)
    if nash:
        fields = np.repeat(np.where(probs > 0, b, -b)[None], len(counts), 0)
    else:
        scale = np.reshape(alphas, probs.shape[:2] + (1,) * len(counts))
        fields = scale * _witness_field(table, counts)
    return _cancel_continuation(policy, skeleton, fields, config.bound)
