"""Closed-form reward constructions that install a target behavior.

The central object is the witness utility: each player is paid the value of
their conditional opponent distribution, L2-normalized per own action.  Its
strictness margins have an exact cosine form, which also yields the maximum
margin ``gamma`` attainable per concept and the epsilon-strict scalings.
Markov targets get a backward-induction variant whose rewards cancel the
continuation value so that every stage inherits the normal-form margins.
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
    conditional_matrix,
    genuine_deviations,
    support,
)
from .installability import (
    Concept,
    DeviationClass,
    check_markov,
    check_sce,
    check_scce,
)


class InfeasibleEpsilonError(ValueError):
    """Requested strictness exceeds what the bound allows; carries the max."""

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
    """L2 row norms and L2-normalized rows (zero rows stay zero)."""
    norms = np.linalg.norm(conds, axis=1)
    units = np.zeros_like(conds)
    pos = norms > 0.0
    units[pos] = conds[pos] / norms[pos, None]
    return norms, units


def _joint_field(rows: np.ndarray, player: int, counts: tuple[int, ...]) -> np.ndarray:
    """Expand per-(own action, opponent profile) rows to a joint-shaped tensor."""
    other = tuple(c for ax, c in enumerate(counts) if ax != player)
    shaped = rows.reshape((counts[player],) + other)
    return np.moveaxis(shaped, 0, player)


def witness_utility(sigma: JointMixedStrategy) -> np.ndarray:
    """Utility tensor paying each player their L2-normalized conditional.

    ``u[i, a] = sigma_cond(i, a_i)(a_{-i}) / ||sigma_cond(i, a_i)||_2`` for
    supported own actions; rows of unsupported actions are identically zero.
    Shape ``(num_players, *action_counts)``.
    """
    counts = sigma.action_counts
    out = np.zeros((sigma.num_players,) + counts)
    for i in range(sigma.num_players):
        _, conds = conditional_matrix(sigma, i)
        _, units = _unit_rows(conds)
        out[i] = _joint_field(units, i, counts)
    return out


def gamma_ce(sigma: JointMixedStrategy) -> GammaResult:
    """Largest strictness margin any unit-bound correlated witness achieves.

    Minimum over players, supported actions j, and alternatives k != j of
    ``||cond_j||_2 (1 - cos(cond_j, cond_k))``.  Returns a zero value with a
    cleared flag when the target is not installable.
    """
    if not check_sce(sigma).installable:
        return GammaResult(0.0, False)
    best = math.inf
    for i in range(sigma.num_players):
        if sigma.action_counts[i] < 2:
            continue
        p, conds = conditional_matrix(sigma, i)
        supported = np.flatnonzero(p > 0.0)
        norms, units = _unit_rows(conds)
        cos = np.clip(units[supported] @ units.T, -1.0, 1.0)
        gaps = norms[supported, None] * (1.0 - cos)
        mask = np.ones_like(gaps, dtype=bool)
        mask[np.arange(supported.size), supported] = False
        best = min(best, float(gaps[mask].min()))
    return GammaResult(best, True)


def _cce_margins(sigma: JointMixedStrategy, player: int):
    """Per-deviation coarse margins for one player, or None if no deviation
    exists."""
    p, conds = conditional_matrix(sigma, player)
    devs = np.array(genuine_deviations(sigma, player), dtype=int)
    if devs.size == 0:
        return None
    supported = np.flatnonzero(p > 0.0)
    norms, units = _unit_rows(conds)
    cos = np.clip(units[supported] @ units[devs].T, -1.0, 1.0)
    return (norms[supported] * p[supported]) @ (1.0 - cos)


def gamma_cce(sigma: JointMixedStrategy) -> GammaResult:
    """Largest coarse strictness margin at unit bound (mass-weighted form).

    Minimum over players i and genuine deviations m of
    ``sum_j p_ij ||cond_j||_2 (1 - cos(cond_j, cond_m))``.  A player whose
    whole mass sits on one action contributes no constraint for that action.
    """
    if not check_scce(sigma).installable:
        return GammaResult(0.0, False)
    best = math.inf
    for i in range(sigma.num_players):
        margins = _cce_margins(sigma, i)
        if margins is not None:
            best = min(best, float(margins.min()))
    return GammaResult(best, True)


def _pure_profile(sigma: JointMixedStrategy) -> tuple[int, ...]:
    profile = []
    for i in range(sigma.num_players):
        sup = support(sigma, i)
        if len(sup) != 1:
            raise ValueError("strict Nash scaling requires a pure target")
        profile.append(sup[0])
    return tuple(profile)


def epsilon_witness(
    sigma: JointMixedStrategy, concept: Concept, config: EpsilonConfig
) -> np.ndarray:
    """Utility tensor achieving strictness margin >= epsilon within the bound.

    NE: pure targets only, paid ``bound`` on the target profile and
    ``-bound`` elsewhere; requires ``epsilon < 2 * bound`` and a deviation
    class that rules out replaying the target.  CE (never-recommended class)
    and CCE: the witness utility scaled by ``epsilon / gamma``; requires
    ``epsilon <= bound * gamma``.  CCE additionally demands every player hold
    two supported actions with differing conditionals, since its guarantee
    covers unrestricted deviations.
    """
    eps, bound = config.epsilon, config.bound
    if concept == Concept.NE:
        if config.deviation_class == DeviationClass.UNRESTRICTED:
            raise ValueError(
                "strict Nash has no finite margin against unrestricted "
                "deviations; use the never-target class"
            )
        profile = _pure_profile(sigma)
        max_gap = 2.0 * bound
        if eps >= max_gap:
            raise InfeasibleEpsilonError(
                f"epsilon {eps} not achievable: margin must stay below "
                f"{max_gap}",
                max_gap=max_gap,
            )
        u = np.full((sigma.num_players,) + sigma.action_counts, -bound)
        u[(slice(None),) + profile] = bound
        return u

    if concept == Concept.CE:
        if config.deviation_class != DeviationClass.NEVER_RECOMMENDED:
            raise ValueError(
                "correlated epsilon-strictness is guaranteed only for the "
                "never-recommended deviation class"
            )
        gamma = gamma_ce(sigma)
    elif concept == Concept.CCE:
        rep = check_scce(sigma)
        if rep.installable:
            # A single-support player with spare actions would let a
            # deviator replicate play exactly, so no positive margin covers
            # unrestricted deviations.  Players with one action have no
            # deviations and are exempt.
            for i, entry in enumerate(rep.evidence):
                if entry[0] == "single" and sigma.action_counts[i] > 1:
                    raise ValueError(
                        "coarse epsilon-strictness needs two supported "
                        "actions with differing conditionals for every "
                        f"player; player {i} has a single supported action"
                    )
        gamma = gamma_cce(sigma)
    else:
        raise ValueError(f"unknown concept {concept!r}")

    if not gamma.installable:
        raise ValueError(f"target is not {concept.value}-installable")
    max_gap = bound * gamma.value
    if eps > max_gap:
        raise InfeasibleEpsilonError(
            f"epsilon {eps} exceeds the achievable margin {max_gap}",
            max_gap=max_gap,
        )
    alpha = eps / gamma.value if math.isfinite(gamma.value) else 0.0
    return alpha * witness_utility(sigma)


def _cancel_continuation(
    policy: MarkovPolicy,
    skeleton: MarkovGameSkeleton,
    stage_u: dict,
    bound: float,
) -> RewardFunction:
    """Rewards whose on-path action values at every ``(h, s)`` equal the
    stage utility ``stage_u[(h, s)]``: backward induction subtracts each
    stage's expected continuation value, then clips to the bound."""
    n = skeleton.num_players
    horizon, num_s = skeleton.horizon, skeleton.num_states
    rewards = np.zeros((n, horizon, num_s) + skeleton.action_counts)
    values = np.zeros((n, horizon + 1, num_s))
    for h in range(horizon - 1, -1, -1):
        for s in range(num_s):
            probs = policy.stages[h, s]
            # Expected next-stage value per joint action, one column per player.
            ev = skeleton.transitions[h, s] @ values[:, h + 1].T
            u = stage_u[(h, s)]
            for i in range(n):
                rewards[i, h, s] = u[i] - ev[..., i]
                values[i, h, s] = float(np.sum(probs * u[i]))
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
    stage_u = {
        (h, s): 0.5 * bound * witness_utility(policy.stage(h, s))
        for h in range(skeleton.horizon)
        for s in range(skeleton.num_states)
    }
    return _cancel_continuation(policy, skeleton, stage_u, bound)


def epsilon_markov_witness(
    policy: MarkovPolicy,
    skeleton: MarkovGameSkeleton,
    concept: Concept,
    config: EpsilonConfig,
) -> RewardFunction:
    """Per-stage epsilon-strict rewards for a Markov policy.

    Splits the bound evenly across the horizon, requires every stage to
    support the margin at bound ``B / H``, and subtracts continuation values
    exactly as :func:`markov_witness`, so each stage's measured margin is the
    normal-form one.
    """
    policy.check_fits(skeleton)
    horizon = skeleton.horizon
    stage_cfg = EpsilonConfig(
        epsilon=config.epsilon,
        bound=config.bound / horizon,
        deviation_class=config.deviation_class,
    )
    stage_u = {}
    for h in range(horizon):
        for s in range(skeleton.num_states):
            try:
                stage_u[(h, s)] = epsilon_witness(
                    policy.stage(h, s), concept, stage_cfg
                )
            except (ValueError, InfeasibleEpsilonError) as exc:
                raise StageCheckError(
                    f"stage (h={h}, s={s}): {exc}", stage=(h, s)
                ) from exc
    return _cancel_continuation(policy, skeleton, stage_u, config.bound)
