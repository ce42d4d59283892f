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
- Product stages: :meth:`MarkovPolicy.first_correlated`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
    """``arr``, a new array its caller just built, made read-only in place."""
    arr.flags.writeable = False
    return arr


class _Rebuilt:
    """Pickle and copy through the constructor: arrays come back frozen and
    no cached table is carried over."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


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
class JointMixedStrategy(_Rebuilt):
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

    @cached_property
    def _embedding(self) -> MarkovPolicy:
        return MarkovPolicy(stages=self.probs.reshape((1, 1) + self.action_counts))


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


def _conditionals(probs: np.ndarray, player: int) -> tuple[np.ndarray, np.ndarray]:
    """``(p, conds)`` of ``player`` for every joint distribution in ``probs``
    (axes ``(h, s)``, then the actions): masses ``p[h, s, j]``, flattened
    conditionals ``conds[h, s, j, :]`` (zeros where ``p`` is 0)."""
    axes = list(range(probs.ndim))
    axes.insert(2, axes.pop(2 + player))
    shape = probs.shape[:2] + (probs.shape[2 + player], -1)
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
    other players' axes.  The arrays are computed afresh, by arithmetic of
    their own: neither :func:`_conditionals` nor any cached table is read.
    """
    n = sigma.num_players
    if not 0 <= player < n:
        raise ShapeError(f"player {player} out of range for {n} players")
    count = sigma.action_counts[player]
    mat = np.moveaxis(sigma.probs, player, 0).reshape(count, -1)
    p = mat.sum(axis=-1)
    col = p[:, None]
    return p, np.divide(mat, col, out=np.zeros_like(mat), where=col > 0.0)


def _factor_gap(probs: np.ndarray) -> np.ndarray:
    """L-inf distance of each joint distribution in ``probs`` from the
    product of its marginals, over the axes ``(h, s)``."""
    axes = tuple(range(2, probs.ndim))
    outer = None
    for ax in axes:
        marg = probs.sum(axis=tuple(a for a in axes if a != ax), keepdims=True)
        outer = marg if outer is None else outer * marg
    return np.abs(probs - outer).max(axis=axes)


@dataclass(frozen=True)
class _Game(_Rebuilt):
    """Labeled action sets, nonempty tuples of strings, and payoffs over them."""

    action_sets: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        sets = tuple(tuple(str(a) for a in acts) for acts in self.action_sets)
        if not sets or any(len(acts) == 0 for acts in sets):
            raise ShapeError("every player needs a nonempty action set")
        object.__setattr__(self, "action_sets", sets)

    def _payoff(self, values, name: str, lead: tuple[int, ...] = ()) -> np.ndarray:
        """``values`` as a frozen, finite float copy shaped ``(n, *lead, *counts)``."""
        counts = tuple(len(acts) for acts in self.action_sets)
        expected = (len(counts),) + lead + counts
        arr = np.array(values, dtype=float)
        if arr.shape != expected:
            raise ShapeError(f"{name} shape {arr.shape}, expected {expected}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError(f"{name} has non-finite entries")
        return _freeze(arr)

    @property
    def num_players(self) -> int:
        return len(self.action_sets)

    @cached_property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(acts) for acts in self.action_sets)


@dataclass(frozen=True)
class NormalFormGame(_Game):
    """A finite normal-form game: labeled action sets and a payoff tensor.

    ``utility[i]`` is player i's payoff over joint action profiles.
    """

    utility: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "utility", self._payoff(self.utility, "utility"))

    @cached_property
    def _embedding(self) -> MarkovGameSkeleton:
        counts = self.action_counts
        return MarkovGameSkeleton(
            action_sets=self.action_sets,
            states=("s0",),
            horizon=1,
            transitions=np.ones((1, 1) + counts + (1,)),
            initial_dist=np.array([1.0]),
            baseline_reward=self.utility.reshape((self.num_players, 1, 1) + counts),
        )


@dataclass(frozen=True)
class MarkovGameSkeleton(_Game):
    """Dynamics of a finite-horizon Markov game, with rewards left open.

    ``transitions[h, s, a_0, ..., a_{n-1}]`` is the next-state distribution
    after profile ``a`` in state ``s`` at stage ``h``; ``initial_dist`` is the
    stage-0 state distribution.  ``baseline_reward`` is a reference reward
    tensor shaped like :class:`RewardFunction` rewards, the modification
    baseline of reward-design costs; given as None, it is stored as zeros.
    """

    states: tuple[str, ...]
    horizon: int
    transitions: np.ndarray
    initial_dist: np.ndarray
    baseline_reward: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        states = tuple(str(s) for s in self.states)
        if not states:
            raise ShapeError("at least one state required")
        if self.horizon < 1:
            raise ShapeError(f"horizon {self.horizon} must be >= 1")
        counts = tuple(len(acts) for acts in self.action_sets)
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
        if base is None:
            base = np.zeros((len(counts), self.horizon, num_s) + counts)
        base = self._payoff(base, "baseline_reward", (self.horizon, num_s))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", _freeze(trans))
        object.__setattr__(self, "initial_dist", _freeze(init))
        object.__setattr__(self, "baseline_reward", base)

    @property
    def num_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class MarkovPolicy(_Rebuilt):
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
        """Marginal action distribution of one player at every (h, s), shaped
        ``(H, S, c_i)``: the masses :attr:`conditional_table` caches,
        read-only."""
        return self.conditional_table[player][0]

    @cached_property
    def conditional_table(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per player, :func:`conditional_matrix` of every :meth:`stage` at
        once: ``(p, conds)`` shaped ``(H, S, c_i)`` and ``(H, S, c_i, R_i)``."""
        players = range(len(self.action_counts))
        return tuple(
            tuple(map(_freeze, _conditionals(self.stages, i))) for i in players
        )

    def derived(self, build: Callable, *args):
        """``build(self, *args)``, a tuple of arrays, computed on the first
        call with these arguments and returned again, read-only, on later
        ones.  The policy cannot change, so the result cannot go stale."""
        memo = self.__dict__.setdefault("_derived", {})
        key = (build, args)
        if key not in memo:
            memo[key] = tuple(map(_freeze, build(self, *args)))
        return memo[key]

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
        marginals within ``COND_ATOL``, in row-major order; None if all do.
        Computed once per policy."""
        return self._first_correlated

    @cached_property
    def _first_correlated(self) -> Optional[tuple[int, int]]:
        bad = np.argwhere(_factor_gap(self.stages) > COND_ATOL)
        return (int(bad[0, 0]), int(bad[0, 1])) if bad.size else None


@dataclass(frozen=True)
class RewardFunction(_Rebuilt):
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
        # The largest magnitude is NaN or inf exactly when some entry is.
        mx = float(np.maximum.reduce(np.abs(arr), axis=None)) if arr.size else 0.0
        if not math.isfinite(mx):
            raise ShapeError("rewards have non-finite entries")
        if not (math.isfinite(self.bound) and self.bound >= 0.0):
            raise ShapeError(f"bound {self.bound} must be finite and >= 0")
        if mx > self.bound:
            raise ShapeError(f"reward magnitude {mx} exceeds bound {self.bound}")
        object.__setattr__(self, "rewards", _freeze(arr))


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
    """The one-stage, one-state Markov game that embeds ``game``, whose
    payoff tensor is the skeleton's baseline reward.

    It is the game's single embedding: built on the first call and returned
    again on later ones, so every caller shares one skeleton.
    """
    return game._embedding


def strategy_as_policy(sigma: JointMixedStrategy) -> MarkovPolicy:
    """The one-stage, one-state Markov policy that embeds ``sigma``.

    It is the strategy's single embedding: built on the first call and
    returned again on later ones, so every caller shares one policy and its
    tables.
    """
    return sigma._embedding
