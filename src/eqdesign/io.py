"""JSON readers and writers for games, targets, and rewards.

Joint actions are flattened row-major: profile ``(a_0, ..., a_{n-1})`` maps
to index ``a_0 * |A_1| * ... * |A_{n-1}| + ... + a_{n-1}``.  Probability
rows are cleaned on ingestion by :func:`~eqdesign.games.clean_distribution`
(tiny negative dust clamped, each row renormalized) and rejected when
genuinely negative or off-sum; messages name the field and, for fields with
several rows, the flat row index, as in ``game.transitions[5]``.  Written
text is ``json.dumps(doc, indent=2, sort_keys=True)`` byte for byte, from a
writer of its own: with an indent, CPython's json leaves its C encoder for
a pure-Python one, and a game file is mostly rows of floats.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import IO, Optional, Union

import numpy as np

from .games import (
    DistributionError,
    MarkovGameSkeleton,
    MarkovPolicy,
    NormalFormGame,
    RewardFunction,
    ShapeError,
    clean_distribution,
)

Game = Union[NormalFormGame, MarkovGameSkeleton]


class InputFormatError(ValueError):
    """A document is malformed; the message names the offending field."""


def _require(doc: dict, field: str, where: str):
    if not isinstance(doc, dict):
        raise InputFormatError(f"{where}: expected an object")
    if field not in doc:
        raise InputFormatError(f"{where}: missing field {field!r}")
    return doc[field]


def _as_array(value, shape: tuple[int, ...], where: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"{where}: not numeric ({exc})") from None
    if arr.shape != shape:
        raise InputFormatError(f"{where}: shape {arr.shape}, expected {shape}")
    return arr


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(f"{where}: expected a number")
    return float(value)


def _clean_rows(arr: np.ndarray, where: str) -> np.ndarray:
    try:
        return clean_distribution(arr, where=where)
    except DistributionError as exc:
        raise InputFormatError(str(exc)) from None


def _build(cls, where: str, *fields):
    """``cls(*fields)``, with the constructor's errors prefixed by ``where``."""
    try:
        return cls(*fields)
    except (ShapeError, DistributionError) as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def _action_sets(doc: dict, where: str) -> tuple[tuple[str, ...], ...]:
    actions = _require(doc, "actions", where)
    if not isinstance(actions, list) or not all(
        isinstance(acts, list) and acts for acts in actions
    ):
        raise InputFormatError(
            f"{where}.actions: expected a nonempty list per player"
        )
    return tuple(tuple(str(a) for a in acts) for acts in actions)


def load_game(doc: dict, where: str = "game") -> Game:
    """Parse a game document.

    Documents with ``states`` and ``horizon`` describe Markov games with
    ``transitions[h][s][a][s']`` over flattened joint actions; documents
    with a ``utility[i][a]`` tensor describe one-shot games.
    """
    sets = _action_sets(doc, where)
    counts = tuple(len(acts) for acts in sets)
    num_a = int(np.prod(counts))
    if "states" not in doc and "horizon" not in doc:
        utility = _as_array(
            _require(doc, "utility", where), (len(sets), num_a), f"{where}.utility"
        ).reshape((len(sets),) + counts)
        return _build(NormalFormGame, where, sets, utility)
    states = _require(doc, "states", where)
    if not isinstance(states, list) or not states:
        raise InputFormatError(f"{where}.states: expected a nonempty list")
    states = tuple(str(s) for s in states)
    horizon = _require(doc, "horizon", where)
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise InputFormatError(f"{where}.horizon: expected an integer >= 1")
    num_s = len(states)
    trans = _as_array(
        _require(doc, "transitions", where),
        (horizon, num_s, num_a, num_s),
        f"{where}.transitions",
    )
    trans = _clean_rows(trans, f"{where}.transitions")
    trans = trans.reshape((horizon, num_s) + counts + (num_s,))
    init = _as_array(
        _require(doc, "initial_dist", where), (num_s,), f"{where}.initial_dist"
    )
    init = _clean_rows(init, f"{where}.initial_dist")
    baseline = None
    if doc.get("baseline_reward") is not None:
        baseline = _as_array(
            doc["baseline_reward"],
            (len(sets), horizon, num_s, num_a),
            f"{where}.baseline_reward",
        ).reshape((len(sets), horizon, num_s) + counts)
    return _build(
        MarkovGameSkeleton, where, sets, states, horizon, trans, init, baseline
    )


def load_policy(
    doc: dict, skeleton: MarkovGameSkeleton, where: str = "target"
) -> MarkovPolicy:
    """Parse a policy: ``stages[h][s][a]`` over flattened joint actions.

    A bare-strategy document, ``{"probs": [a]}``, is the one stage of a
    one-stage, one-state game.
    """
    counts = skeleton.action_counts
    num_a = int(np.prod(counts))
    horizon, num_s = skeleton.horizon, skeleton.num_states
    field, shape = "stages", (horizon, num_s, num_a)
    if "probs" in doc and "stages" not in doc:
        if horizon != 1 or num_s != 1:
            raise InputFormatError(
                f"{where}: bare strategy given for a game with "
                f"horizon {horizon} and {num_s} states"
            )
        field, shape = "probs", (num_a,)
    stages = _as_array(_require(doc, field, where), shape, f"{where}.{field}")
    stages = _clean_rows(stages, f"{where}.{field}")
    return _build(MarkovPolicy, where, stages.reshape((horizon, num_s) + counts))


def _reward_tensor(doc: dict, game: Game, where: str) -> tuple[np.ndarray, str]:
    """The ``rewards`` of a reward document, ``[i][h][s][a]``, or for a
    one-shot game also the ``utility`` of a utility document, ``[i][a]``, in
    the Markov form's shape ``(n, H, S, *counts)``, where a one-shot game
    has one stage and one state.  Returns the tensor and the field read."""
    counts = game.action_counts
    n, num_a = len(counts), int(np.prod(counts))
    if isinstance(game, NormalFormGame):
        if "utility" in doc:
            arr = _as_array(doc["utility"], (n, num_a), f"{where}.utility")
            return arr.reshape((n, 1, 1) + counts), "utility"
        lead = (n, 1, 1)
    else:
        lead = (n, game.horizon, game.num_states)
    rewards = _require(doc, "rewards", where)
    arr = _as_array(rewards, lead + (num_a,), f"{where}.rewards")
    return arr.reshape(lead + counts), "rewards"


def load_reward(doc: dict, game: Game, where: str = "reward") -> RewardFunction:
    """Parse ``{"rewards": [i][h][s][a], "bound": B}``, or for a one-shot
    game a ``{"utility": [i][a]}`` document, whose ``bound`` defaults to
    ``max(max |utility|, 1)``, as the rewards of the game's Markov form."""
    rewards, field = _reward_tensor(doc, game, where)
    if field == "utility" and "bound" not in doc:
        bound = max(float(np.abs(rewards).max()), 1.0)
    else:
        bound = _as_number(_require(doc, "bound", where), f"{where}.bound")
    return _build(RewardFunction, where, rewards, bound)


def load_baseline(doc: dict, game: Game, where: str = "baseline") -> np.ndarray:
    """Parse a reference reward for the modification costs: the documents
    :func:`load_reward` reads, with ``bound`` not required.  Returns the
    tensor in the Markov form's shape, the one a skeleton carries as its
    ``baseline_reward``: ``(n, 1, 1, *counts)`` for a one-shot game."""
    return _reward_tensor(doc, game, where)[0]


def reward_to_doc(reward: RewardFunction) -> dict:
    n, horizon, num_s = reward.rewards.shape[:3]
    flat = reward.rewards.reshape(n, horizon, num_s, -1)
    return {"rewards": flat.tolist(), "bound": reward.bound}


def utility_to_doc(utility: np.ndarray) -> dict:
    u = np.asarray(utility, dtype=float)
    return {"utility": u.reshape(u.shape[0], -1).tolist()}


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise InputFormatError(f"{path}: expected a JSON object")
    return doc


def _indented(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` placed at ``indent``:
    a row of finite floats is one join of ``float.__repr__``, a str-keyed
    object is walked here, and json writes every other value, so it decides
    scalars, escapes and errors."""
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)) and value:
        if all(type(x) is float for x in value):
            text = sep.join(map(float.__repr__, value))
            if "n" not in text:  # "nan" and "inf" are not json's spelling
                return f"[\n{inner}{text}\n{indent}]"
        else:
            text = sep.join([_indented(x, inner) for x in value])
            return f"[\n{inner}{text}\n{indent}]"
    elif isinstance(value, dict) and value and all(type(k) is str for k in value):
        text = sep.join([
            f"{encode_basestring_ascii(k)}: {_indented(value[k], inner)}"
            for k in sorted(value)
        ])
        return f"{{\n{inner}{text}\n{indent}}}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def dump_json(doc: dict, target: Optional[Union[str, IO[str]]] = None) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, written to
    a path or handle when given.  A self-referencing document, which the
    package never builds, raises ``RecursionError``, not json's ValueError."""
    text = _indented(doc) + "\n"
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    elif target is not None:
        target.write(text)
    return text
