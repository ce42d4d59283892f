"""Ground-truth measurement of strictness margins, independent of any LP.

Everything here is plain backward/forward induction over the dense tensors,
one stage at a time with every state at once: on-path values, visitation,
single-deviator best responses, and the per-constraint strictness gaps of
each concept, as arrays.  :func:`check_strict` is the one verifier the
package runs, on Markov games and one-stage embeddings alike.  A one-stage
re-implementation (:func:`nfg_oracle`) is kept as an independent reference
for normal-form instances, against which the tests and the benchmark check
:func:`check_strict` bit-tightly; it shares only the precondition check,
:func:`~eqdesign.installability.require`, with the rest of the module.

Deviation semantics: margins quantify over deviations that actually change
play, the sets :func:`~eqdesign.installability.deviation_mask` gives.  An
action carrying a player's whole stage mass replicates the target and is
never counted as a deviation at that stage; the deviation class may exclude
it from future stages as well (``NEVER_TARGET``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .games import (
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    RewardFunction,
    ShapeError,
    ValueTables,
    conditional_matrix,
    genuine_deviations,
)
from .installability import Concept, DeviationClass, deviation_mask, require


@dataclass(frozen=True)
class GapReport:
    """Strictness margins, one entry per deviation constraint.

    Keys are ``(player, stage, state, deviation)`` for NE/CCE and
    ``(player, stage, state, recommended, replacement)`` for CE.  ``min_gap``
    is the minimum entry (+inf when no constraints exist) and ``argmin`` the
    first key attaining it in ascending order.  ``strict`` means
    ``min_gap > epsilon``.
    """

    concept: Concept
    epsilon: float
    deviation_class: Optional[DeviationClass]
    min_gap: float
    argmin: Optional[tuple]
    per_constraint: dict = field(default_factory=dict)

    @property
    def strict(self) -> bool:
        return self.min_gap > self.epsilon


@dataclass(frozen=True)
class BestResponse:
    """Optimal single-agent deviation against the opponents' marginals.

    ``v[h, s]`` is the best achievable value from (h, s) onward within the
    deviation class; ``q[h, s, m]`` the value of playing m now and best
    thereafter (computed for every action, allowed or not); ``actions`` the
    chosen argmax (lowest index on ties).
    """

    player: int
    deviation_class: DeviationClass
    v: np.ndarray
    q: np.ndarray
    actions: np.ndarray


def _check_shapes(
    skeleton: MarkovGameSkeleton,
    reward: RewardFunction,
    policy: MarkovPolicy,
) -> None:
    expected = (
        skeleton.num_players,
        skeleton.horizon,
        skeleton.num_states,
    ) + skeleton.action_counts
    if reward.rewards.shape != expected:
        raise ShapeError(
            f"reward shape {reward.rewards.shape}, expected {expected}"
        )
    policy.check_fits(skeleton)


def policy_eval(
    skeleton: MarkovGameSkeleton,
    reward: RewardFunction,
    policy: MarkovPolicy,
) -> ValueTables:
    """On-path state and action values by backward induction."""
    _check_shapes(skeleton, reward, policy)
    n = skeleton.num_players
    horizon, num_s = skeleton.horizon, skeleton.num_states
    counts = skeleton.action_counts
    v = np.zeros((n, horizon + 1, num_s))
    q = np.zeros((n, horizon, num_s) + counts)
    action_axes = tuple(range(2, 2 + len(counts)))
    for h in range(horizon - 1, -1, -1):
        cont = np.tensordot(skeleton.transitions[h], v[:, h + 1], axes=([-1], [1]))
        q[:, h] = reward.rewards[:, h] + np.moveaxis(cont, -1, 0)
        v[:, h] = np.sum(policy.stages[h][None] * q[:, h], axis=action_axes)
    return ValueTables(v=v, q=q)


def visitation(skeleton: MarkovGameSkeleton, policy: MarkovPolicy) -> np.ndarray:
    """Stage occupancy measure over (state, joint action); each stage sums to 1."""
    policy.check_fits(skeleton)
    horizon, num_s = skeleton.horizon, skeleton.num_states
    counts = skeleton.action_counts
    mu = np.zeros((horizon, num_s) + counts)
    state_dist = skeleton.initial_dist.copy()
    extra = (None,) * len(counts)
    for h in range(horizon):
        mu[h] = state_dist[(slice(None),) + extra] * policy.stages[h]
        flat_mu = mu[h].reshape(num_s, -1)
        flat_p = skeleton.transitions[h].reshape(num_s, -1, num_s)
        state_dist = np.einsum("sa,sat->t", flat_mu, flat_p)
    return mu


def best_response(
    skeleton: MarkovGameSkeleton,
    reward: RewardFunction,
    policy: MarkovPolicy,
    player: int,
    dev_class: DeviationClass = DeviationClass.UNRESTRICTED,
) -> BestResponse:
    """Optimal deviation values for one player, everyone else on-path.

    At each (h, s) the deviator faces opponents drawn from the stage
    marginal; a deterministic stage choice is optimal, so the argmax over
    allowed pure actions is exact.  The classes are the coarse (NE and CCE)
    ones: recommendation-aware deviations are the CE gap table's.
    """
    _check_shapes(skeleton, reward, policy)
    require(Concept.CCE, policy, dev_class)
    if not 0 <= player < skeleton.num_players:
        raise ShapeError(f"player {player} out of range")
    horizon, num_s = skeleton.horizon, skeleton.num_states
    count = skeleton.action_counts[player]
    v = np.zeros((horizon + 1, num_s))
    q = np.zeros((horizon, num_s, count))
    actions = np.zeros((horizon, num_s), dtype=int)
    allowed = None
    if dev_class == DeviationClass.NEVER_TARGET:
        allowed = deviation_mask(policy.marginal(player), Concept.CCE)
    # Own action values as (state, own, opponents); transpose beats np.moveaxis.
    others = [1 + i for i in range(skeleton.num_players) if i != player]
    for h in range(horizon - 1, -1, -1):
        payoff = reward.rewards[player, h] + skeleton.transitions[h] @ v[h + 1]
        mat = payoff.transpose([0, 1 + player] + others).reshape(num_s, count, -1)
        marg = policy.stages[h].sum(axis=1 + player).reshape(num_s, -1, 1)
        q[h] = best = (mat @ marg)[..., 0]
        if allowed is not None:
            some = allowed[h].any(axis=1)
            if not some.all():
                raise ValueError(
                    f"never-target class leaves player {player} no action at "
                    f"(h={h}, s={int(some.argmin())})"
                )
            best = np.where(allowed[h], best, -math.inf)
        actions[h] = best.argmax(axis=1)
        v[h] = np.maximum.reduce(best, axis=1)
    return BestResponse(
        player=player, deviation_class=dev_class, v=v, q=q, actions=actions
    )


def _finalize(
    concept: Concept,
    epsilon: float,
    dev_class: Optional[DeviationClass],
    gaps: dict,
) -> GapReport:
    if gaps:
        argmin = min(gaps, key=lambda key: (gaps[key], key))
        min_gap = gaps[argmin]
    else:
        argmin = None
        min_gap = math.inf
    return GapReport(
        concept=concept,
        epsilon=epsilon,
        deviation_class=dev_class,
        min_gap=min_gap,
        argmin=argmin,
        per_constraint=gaps,
    )


def check_strict(
    skeleton: MarkovGameSkeleton,
    reward: RewardFunction,
    policy: MarkovPolicy,
    concept: Concept,
    epsilon: float = 0.0,
    dev_class: DeviationClass = DeviationClass.UNRESTRICTED,
) -> GapReport:
    """Measure every deviation constraint of the reward at the target.

    NE/CCE gaps compare the on-path value with playing a deviation action
    now and best-responding (within the class) afterwards; NE additionally
    requires a product policy.  CE gaps compare action values along each
    supported recommendation against every replacement, weighted by the
    conditional opponent distribution.  The report is strict iff every gap
    exceeds ``epsilon``, which must be finite.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon {epsilon} must be finite")
    _check_shapes(skeleton, reward, policy)
    require(concept, policy, dev_class)
    values = policy_eval(skeleton, reward, policy)
    gaps: dict = {}
    for i in range(skeleton.num_players):
        if concept == Concept.CE:
            p, conds = policy.conditional_table[i]
            qmat = np.moveaxis(values.q[i], 2 + i, 2).reshape(conds.shape)
            on_rec = np.einsum("...jr,...jr->...j", conds, qmat)
            cross = conds @ qmat.swapaxes(-1, -2)  # [.., j, k] = E_cond_j[q_k]
            table = on_rec[..., None] - cross
        elif skeleton.action_counts[i] > 1:  # one action has no deviation
            br = best_response(skeleton, reward, policy, i, dev_class)
            p, table = policy.marginal(i), values.v[i, :-1, :, None] - br.q
        else:
            continue
        # Keyed (player, *index of the mask), row-major.
        mask = deviation_mask(p, concept)
        index = np.nonzero(mask)
        keys = zip([i] * index[0].size, *(ax.tolist() for ax in index))
        gaps.update(zip(keys, table[mask].tolist()))
    return _finalize(concept, epsilon, dev_class, gaps)


def nfg_oracle(
    utility: np.ndarray, sigma: JointMixedStrategy, concept: Concept
) -> GapReport:
    """One-stage strictness gaps by direct summation over profiles.

    Independent of the backward-induction machinery; keys use stage 0 and
    state 0 so reports line up with the one-stage embedding of the game.
    Nothing in the package calls it: it is the reference that
    :func:`check_strict` is compared against.
    """
    u = np.asarray(utility, dtype=float)
    n = sigma.num_players
    if u.shape != (n,) + sigma.action_counts:
        raise ShapeError(
            f"utility shape {u.shape}, expected {(n,) + sigma.action_counts}"
        )
    require(concept, sigma)
    gaps: dict = {}
    if concept != Concept.CE:
        for i in range(n):
            on_path = float(np.sum(sigma.probs * u[i]))
            marg = sigma.opponent_marginal(i).reshape(-1)
            mat = np.moveaxis(u[i], i, 0).reshape(sigma.action_counts[i], -1)
            dev_vals = mat @ marg
            for m in genuine_deviations(sigma, i):
                gaps[(i, 0, 0, m)] = float(on_path - dev_vals[m])
    else:
        for i in range(n):
            count = sigma.action_counts[i]
            if count < 2:
                continue
            p, conds = conditional_matrix(sigma, i)
            mat = np.moveaxis(u[i], i, 0).reshape(count, -1)
            on_rec = np.einsum("jr,jr->j", conds, mat)
            cross = conds @ mat.T
            for j in np.flatnonzero(p > 0.0):
                for k in range(count):
                    if k == int(j):
                        continue
                    gaps[(i, 0, 0, int(j), k)] = float(on_rec[j] - cross[j, k])
    return _finalize(concept, 0.0, None, gaps)
