"""Core data model for finite games and target behaviors.

Joint objects (strategies, stage policies, transition rows, reward tensors)
are stored as dense numpy arrays whose joint-action axes are indexed in
row-major order of the per-player action indices.  Players, actions, stages
and states are all 0-based everywhere, including reports and file formats.

This module is the one home of the three input rules the rest of the
package relies on:

- Probability rows: constructors require entries >= 0 summing to 1 within
  ``PROB_ATOL``, checked for all rows at once; the ingestion helper
  :func:`clean_distribution` additionally clamps float dust in
  [-NEG_CLAMP, 0] to exact zeros and renormalizes each row along the last
  axis, so that support queries (exact ``> 0``) are stable afterwards.
- Policy-game fit: :meth:`MarkovPolicy.check_fits`.
- Product stages: :func:`is_product` and
  :meth:`MarkovPolicy.first_correlated`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

# Tolerance for any stored probability vector to sum to 1.
PROB_ATOL = 1e-9
# Negative entries above this magnitude are float dust and get clamped to 0.
NEG_CLAMP = 1e-12
# Two conditional distributions are considered equal below this L-inf gap.
COND_ATOL = 1e-9


class ShapeError(ValueError):
    """An array has the wrong rank or axis lengths for its role."""


class DistributionError(ValueError):
    """A vector that must be a probability distribution is not one."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _check_rows(rows: np.ndarray, label: Callable[[int], str]) -> None:
    """Raise unless every row of the 2-D ``rows`` is a distribution.

    Two reductions flag the bad rows (NaN fails both); only then is the
    first one examined for the message, prefixed by ``label(row index)``.
    """
    # ``initial=0.0`` keeps empty rows reducible; it never hides a negative.
    ok = (rows.min(axis=1, initial=0.0) >= 0.0) & (
        np.abs(rows.sum(axis=1) - 1.0) <= PROB_ATOL
    )
    if ok.all():
        return
    idx = int(np.argmin(ok))
    row, where = rows[idx], label(idx)
    if not np.all(np.isfinite(row)):
        raise DistributionError(f"{where}: non-finite entry")
    if np.any(row < 0.0):
        raise DistributionError(f"{where}: negative probability {float(row.min())}")
    raise DistributionError(f"{where}: sums to {float(row.sum())}, not 1")


def clean_distribution(values, where: str = "distribution") -> np.ndarray:
    """Ingest raw numbers as probability rows along the last axis.

    Entries below ``-NEG_CLAMP`` are rejected; entries in ``[-NEG_CLAMP, 0]``
    are clamped to exact 0.  Each row must sum to 1 within ``PROB_ATOL`` and
    is renormalized to sum to exactly 1.0.  A 1-D input is one row.
    ``where`` names the offending field in error messages, followed by the
    flat row index ``[k]`` when there is more than one axis.
    """
    arr = np.array(values, dtype=float)
    rows = arr.reshape(-1, arr.shape[-1] if arr.ndim else 1)
    rows[(rows < 0.0) & (rows >= -NEG_CLAMP)] = 0.0
    if arr.ndim > 1:
        _check_rows(rows, lambda k: f"{where}[{k}]")
    else:
        _check_rows(rows, lambda k: where)
    return (rows / rows.sum(axis=1, keepdims=True)).reshape(arr.shape)


@dataclass(frozen=True)
class JointMixedStrategy:
    """A joint distribution over action profiles of a normal-form game.

    ``probs`` has one axis per player; entry ``probs[a_0, ..., a_{n-1}]``
    is the probability of that action profile.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=float)
        if arr.ndim < 1:
            raise ShapeError("joint strategy needs at least one player axis")
        _check_rows(arr.reshape(1, -1), lambda k: "joint strategy")
        object.__setattr__(self, "probs", _freeze(arr))

    @property
    def num_players(self) -> int:
        return self.probs.ndim

    @property
    def action_counts(self) -> tuple[int, ...]:
        return self.probs.shape

    def marginal(self, player: int) -> np.ndarray:
        """Marginal action distribution of one player."""
        axes = tuple(ax for ax in range(self.probs.ndim) if ax != player)
        return self.probs.sum(axis=axes)

    def opponent_marginal(self, player: int) -> np.ndarray:
        """Joint marginal over everyone except ``player`` (their axes, in order)."""
        return self.probs.sum(axis=player)

    @property
    def conditional_table(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """:func:`conditional_matrix` of every player, computed on each access."""
        return tuple(_conditionals(self.probs, i, 0) for i in range(self.num_players))


def support(sigma: JointMixedStrategy, player: int) -> tuple[int, ...]:
    """Actions of ``player`` carrying strictly positive marginal mass."""
    if not 0 <= player < sigma.num_players:
        raise ShapeError(f"player {player} out of range")
    marg = sigma.marginal(player)
    return tuple(int(j) for j in np.flatnonzero(marg > 0.0))


def genuine_deviations(sigma: JointMixedStrategy, player: int) -> tuple[int, ...]:
    """Actions of ``player`` whose play departs from the target.

    Every action, except that one carrying the player's whole marginal mass
    replicates the target and is left out.
    """
    sup = support(sigma, player)
    actions = range(sigma.action_counts[player])
    if len(sup) == 1:
        return tuple(a for a in actions if a != sup[0])
    return tuple(actions)


def _conditionals(
    probs: np.ndarray, player: int, lead: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(p, conds)`` of ``player`` for every joint distribution in ``probs``
    (action axes after the first ``lead``): masses ``p[..., j]``, flattened
    conditionals ``conds[..., j, :]`` (zeros where ``p`` is 0)."""
    axes = list(range(probs.ndim))
    axes.insert(lead, axes.pop(lead + player))
    shape = probs.shape[:lead] + (probs.shape[lead + player], -1)
    mat = probs.transpose(axes).reshape(shape)
    p = mat.sum(axis=-1)
    # zeros_like keeps mat's layout, and with it later reductions' rounding.
    col = p[..., None]
    return p, np.divide(mat, col, out=np.zeros_like(mat), where=col > 0.0)


def conditional_matrix(sigma: JointMixedStrategy, player: int) -> tuple[np.ndarray, np.ndarray]:
    """All conditionals of one player at once.

    Returns ``(p, conds)`` where ``p[j]`` is the marginal mass on action j and
    ``conds[j]`` is the flattened conditional opponent distribution (all zeros
    for unsupported j), over opponent profiles in row-major order of the
    other players' axes.
    """
    n = sigma.num_players
    if not 0 <= player < n:
        raise ShapeError(f"player {player} out of range for {n} players")
    return _conditionals(sigma.probs, player, 0)


def _factor_gap(probs: np.ndarray, lead: int) -> np.ndarray:
    """L-inf distance of each joint distribution in ``probs`` from the
    product of its marginals; the action axes follow the first ``lead``."""
    axes = tuple(range(lead, probs.ndim))
    outer = None
    for ax in axes:
        marg = probs.sum(axis=tuple(a for a in axes if a != ax), keepdims=True)
        outer = marg if outer is None else outer * marg
    return np.abs(probs - outer).max(axis=axes)


def is_product(sigma: JointMixedStrategy) -> bool:
    """Whether the joint strategy factorizes into independent marginals
    (within ``COND_ATOL``)."""
    return bool(_factor_gap(sigma.probs, 0) <= COND_ATOL)


@dataclass(frozen=True)
class NormalFormGame:
    """A finite normal-form game: labeled action sets and a payoff tensor.

    ``utility[i]`` is player i's payoff over joint action profiles.
    """

    action_sets: tuple[tuple[str, ...], ...]
    utility: np.ndarray

    def __post_init__(self) -> None:
        sets = tuple(tuple(str(a) for a in acts) for acts in self.action_sets)
        if not sets or any(len(acts) == 0 for acts in sets):
            raise ShapeError("every player needs a nonempty action set")
        arr = np.array(self.utility, dtype=float)
        expected = (len(sets),) + tuple(len(acts) for acts in sets)
        if arr.shape != expected:
            raise ShapeError(f"utility shape {arr.shape}, expected {expected}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("utility has non-finite entries")
        object.__setattr__(self, "action_sets", sets)
        object.__setattr__(self, "utility", _freeze(arr))

    @property
    def num_players(self) -> int:
        return len(self.action_sets)

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(acts) for acts in self.action_sets)


@dataclass(frozen=True)
class MarkovGameSkeleton:
    """Dynamics of a finite-horizon Markov game, with rewards left open.

    ``transitions[h, s, a_0, ..., a_{n-1}]`` is the next-state distribution
    after profile ``a`` in state ``s`` at stage ``h``; ``initial_dist`` is the
    stage-0 state distribution.  ``baseline_reward`` (optional) is a reference
    reward tensor shaped like :class:`RewardFunction` rewards, used as the
    modification baseline by reward-design costs.
    """

    action_sets: tuple[tuple[str, ...], ...]
    states: tuple[str, ...]
    horizon: int
    transitions: np.ndarray
    initial_dist: np.ndarray
    baseline_reward: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        sets = tuple(tuple(str(a) for a in acts) for acts in self.action_sets)
        states = tuple(str(s) for s in self.states)
        if not sets or any(len(acts) == 0 for acts in sets):
            raise ShapeError("every player needs a nonempty action set")
        if not states:
            raise ShapeError("at least one state required")
        if self.horizon < 1:
            raise ShapeError(f"horizon {self.horizon} must be >= 1")
        counts = tuple(len(acts) for acts in sets)
        num_s = len(states)
        trans = np.array(self.transitions, dtype=float)
        expected = (self.horizon, num_s) + counts + (num_s,)
        if trans.shape != expected:
            raise ShapeError(f"transitions shape {trans.shape}, expected {expected}")
        _check_rows(trans.reshape(-1, num_s), lambda k: f"transition row {k}")
        init = np.array(self.initial_dist, dtype=float)
        if init.shape != (num_s,):
            raise ShapeError(f"initial_dist shape {init.shape}, expected ({num_s},)")
        _check_rows(init.reshape(1, -1), lambda k: "initial_dist")
        base = self.baseline_reward
        if base is not None:
            base = np.array(base, dtype=float)
            expected_r = (len(sets), self.horizon, num_s) + counts
            if base.shape != expected_r:
                raise ShapeError(
                    f"baseline_reward shape {base.shape}, expected {expected_r}"
                )
            if not np.all(np.isfinite(base)):
                raise ShapeError("baseline_reward has non-finite entries")
            base = _freeze(base)
        object.__setattr__(self, "action_sets", sets)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", _freeze(trans))
        object.__setattr__(self, "initial_dist", _freeze(init))
        object.__setattr__(self, "baseline_reward", base)

    @property
    def num_players(self) -> int:
        return len(self.action_sets)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(acts) for acts in self.action_sets)


@dataclass(frozen=True)
class MarkovPolicy:
    """Target joint behavior: one joint action distribution per (stage, state).

    ``stages[h, s]`` is a joint distribution over action profiles.  Whether
    every stage factorizes is :meth:`first_correlated`'s question, asked by
    :func:`~eqdesign.installability.require` of every Nash target.
    """

    stages: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.stages, dtype=float)
        if arr.ndim < 3:
            raise ShapeError("policy needs axes (stage, state, actions...)")
        num_s = arr.shape[1]
        _check_rows(
            arr.reshape(arr.shape[0] * num_s, -1),
            lambda k: "policy stage (h={}, s={})".format(*divmod(k, num_s)),
        )
        object.__setattr__(self, "stages", _freeze(arr))

    @property
    def horizon(self) -> int:
        return self.stages.shape[0]

    @property
    def num_states(self) -> int:
        return self.stages.shape[1]

    @property
    def action_counts(self) -> tuple[int, ...]:
        return self.stages.shape[2:]

    @cached_property
    def _stage_table(self) -> list[list[JointMixedStrategy]]:
        return [[JointMixedStrategy(p) for p in per_h] for per_h in self.stages]

    def stage(self, h: int, s: int) -> JointMixedStrategy:
        """The joint mixed strategy played at stage ``h`` in state ``s``."""
        return self._stage_table[h][s]

    def marginal(self, player: int) -> np.ndarray:
        """Marginal action distribution of one player at every (h, s)."""
        players = range(len(self.action_counts))
        return self.stages.sum(axis=tuple(2 + i for i in players if i != player))

    @cached_property
    def conditional_table(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per player, :func:`conditional_matrix` of every :meth:`stage` at
        once: ``(p, conds)`` shaped ``(H, S, c_i)`` and ``(H, S, c_i, R_i)``."""
        players = range(len(self.action_counts))
        table = tuple(_conditionals(self.stages, i, 2) for i in players)
        for p, conds in table:
            p.flags.writeable = conds.flags.writeable = False
        return table

    def check_fits(self, skeleton: MarkovGameSkeleton) -> None:
        """Raise ``ShapeError`` unless the stage/state grid and the action
        counts are the game's."""
        expected = (skeleton.horizon, skeleton.num_states) + skeleton.action_counts
        if self.stages.shape != expected:
            raise ShapeError(
                f"policy shape {self.stages.shape} does not fit the game's "
                f"{expected}"
            )

    def first_correlated(self) -> Optional[tuple[int, int]]:
        """The first ``(h, s)`` whose stage does not factorize into its
        marginals within ``COND_ATOL``, in row-major order; None if all do."""
        bad = np.argwhere(_factor_gap(self.stages, 2) > COND_ATOL)
        return (int(bad[0, 0]), int(bad[0, 1])) if bad.size else None


@dataclass(frozen=True)
class RewardFunction:
    """Per-player stage rewards with a box bound.

    ``rewards[i, h, s, a_0, ..., a_{n-1}]``; every entry lies in
    ``[-bound, bound]``.
    """

    rewards: np.ndarray
    bound: float

    def __post_init__(self) -> None:
        arr = np.array(self.rewards, dtype=float)
        if arr.ndim < 4:
            raise ShapeError("rewards need axes (player, stage, state, actions...)")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("rewards have non-finite entries")
        if not (math.isfinite(self.bound) and self.bound >= 0.0):
            raise ShapeError(f"bound {self.bound} must be finite and >= 0")
        mx = float(np.max(np.abs(arr))) if arr.size else 0.0
        if mx > self.bound:
            raise ShapeError(f"reward magnitude {mx} exceeds bound {self.bound}")
        object.__setattr__(self, "rewards", _freeze(arr))

    @property
    def num_players(self) -> int:
        return self.rewards.shape[0]


@dataclass(frozen=True)
class ValueTables:
    """Per-player state values and action values under a fixed policy, as
    :func:`~eqdesign.verify.policy_eval` builds them.

    ``v[i, h, s]`` for h in 0..H (terminal layer all zero), and
    ``q[i, h, s, a...]`` for h in 0..H-1.
    """

    v: np.ndarray
    q: np.ndarray


def nfg_as_markov(game: NormalFormGame) -> MarkovGameSkeleton:
    """Embed a normal-form game as a one-stage, one-state Markov game.

    The payoff tensor becomes the baseline reward of the skeleton.
    """
    counts = game.action_counts
    num_s = 1
    trans = np.ones((1, num_s) + counts + (num_s,), dtype=float)
    base = game.utility.reshape((game.num_players, 1, 1) + counts)
    return MarkovGameSkeleton(
        action_sets=game.action_sets,
        states=("s0",),
        horizon=1,
        transitions=trans,
        initial_dist=np.array([1.0]),
        baseline_reward=base,
    )


def strategy_as_policy(sigma: JointMixedStrategy) -> MarkovPolicy:
    """Embed a joint mixed strategy as a one-stage, one-state Markov policy."""
    return MarkovPolicy(stages=sigma.probs.reshape((1, 1) + sigma.action_counts))
