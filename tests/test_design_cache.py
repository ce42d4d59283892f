"""Target tables computed once, on the immutable game and target objects.

A normal-form game and a joint strategy each hold their one-stage embedding,
a joint strategy and a policy their conditional tables, and a policy the
design's strictness weights per concept.  On seeded 2x2 to 3x3 targets,
with CE, CCE and (on product targets) NE, every cost and max-gap, this
module checks that:

- repeated designs on one game and strategy give what designs on fresh,
  equal objects give: status, objective, reward and utility bytes, solver
  steps and the verifier's report;
- the embedding is one object per game and per strategy;
- ``dataclasses.replace(game, utility=u2)`` designs from ``u2``;
- every cached array refuses writes.

The default sample runs in about a second; ``EQDESIGN_SLOW=1`` runs a ten
times larger one.
"""

import dataclasses
import importlib
import math
import os

import numpy as np
import pytest

from eqdesign import (
    Concept,
    CostKind,
    CostSpec,
    DesignConfig,
    JointMixedStrategy,
    LpStatus,
    NormalFormGame,
    check,
    design,
    evaluate_cost,
    gamma_cce,
    gamma_ce,
    nfg_as_markov,
    strategy_as_policy,
)
from conftest import is_product, make_rng

design_module = importlib.import_module("eqdesign.design")

SHAPES = ((2, 2), (3, 2), (2, 3), (3, 3))
KINDS = ("full", "sparse", "pure", "product")
SPECS = [(kind, False) for kind in CostKind] + [(CostKind.OFFLINE, True)]


def cache_case(k: int):
    """Target ``k`` of the sample and a random game of its shape."""
    rng = make_rng(f"design-cache-{k}")
    shape = SHAPES[k % len(SHAPES)]
    kind = KINDS[(k // len(SHAPES)) % len(KINDS)]
    cells = int(np.prod(shape))
    if kind == "full":
        probs = rng.dirichlet(np.full(cells, 0.7))
    elif kind == "sparse":
        size = int(rng.integers(2, cells))
        probs = np.zeros(cells)
        probs[rng.choice(cells, size=size, replace=False)] = rng.dirichlet(
            np.full(size, 0.7)
        )
    elif kind == "pure":
        probs = np.zeros(cells)
        probs[int(rng.integers(cells))] = 1.0
    else:
        probs = np.multiply.outer(*(rng.dirichlet(np.ones(c)) for c in shape))
    sets = tuple(tuple(f"a{j}" for j in range(c)) for c in shape)
    game = NormalFormGame(sets, rng.uniform(-1.0, 1.0, (2,) + shape))
    return rng, game, JointMixedStrategy(probs.reshape(shape))


def plans(sigma):
    """``(concept, cost kind, config)`` of every design on ``sigma``: half
    the largest margin of a unit bound, or a little on an uninstallable
    target, whose programs are infeasible."""
    concepts = [Concept.CE, Concept.CCE] + ([Concept.NE] if is_product(sigma) else [])
    for concept in concepts:
        if not check(sigma, concept).installable:
            slack = 1e-3
        elif concept == Concept.NE:
            slack = 1.0
        else:
            gamma = (gamma_ce if concept == Concept.CE else gamma_cce)(sigma).value
            slack = 0.5 * gamma if math.isfinite(gamma) else 0.5
        for kind, max_gap in SPECS:
            yield concept, kind, DesignConfig(slack=slack, bound=1.0, max_gap=max_gap)


def assert_same(one, two, case) -> None:
    assert one.status == two.status, case
    assert one.objective == two.objective, case
    assert one.phase_steps == two.phase_steps, case
    assert one.iterations == two.iterations, case
    assert one.report == two.report, case
    if one.status != LpStatus.OPTIMAL:
        assert one.reward is None and two.reward is None, case
        return
    assert one.reward.rewards.tobytes() == two.reward.rewards.tobytes(), case
    assert one.utility.tobytes() == two.utility.tobytes(), case


def cached_arrays(game, sigma):
    """Every array the game, the strategy and their embeddings hold."""
    skeleton, policy = nfg_as_markov(game), strategy_as_policy(sigma)
    yield game.utility
    yield sigma.probs
    yield from (skeleton.transitions, skeleton.initial_dist, skeleton.baseline_reward)
    yield policy.stages
    for p, conds in policy.conditional_table:
        yield p
        yield conds
    for concept, *_ in plans(sigma):
        yield from policy.derived(design_module._strict_weights, concept)


def check_case(k: int) -> int:
    rng, game, sigma = cache_case(k)
    skeleton, policy = nfg_as_markov(game), strategy_as_policy(sigma)
    assert nfg_as_markov(game) is skeleton
    assert strategy_as_policy(sigma) is policy
    optimal = 0
    # Twice over the shared pair: the first pass fills the caches, the
    # second reads them.
    for _ in range(2):
        for concept, kind, config in plans(sigma):
            fresh_game = NormalFormGame(game.action_sets, game.utility.copy())
            fresh_sigma = JointMixedStrategy(sigma.probs.copy())
            cost = CostSpec(kind)
            shared = design(game, sigma, concept, cost, config)
            fresh = design(fresh_game, fresh_sigma, concept, cost, config)
            assert_same(shared, fresh, (k, concept, kind, config.max_gap))
            optimal += shared.status == LpStatus.OPTIMAL
    assert nfg_as_markov(game) is skeleton
    assert strategy_as_policy(sigma) is policy
    weights = policy.derived(design_module._strict_weights, Concept.CCE)
    assert policy.derived(design_module._strict_weights, Concept.CCE) is weights

    # A replaced game is a new object with its own embedding.
    other = rng.uniform(-1.0, 1.0, game.utility.shape)
    moved = dataclasses.replace(game, utility=other)
    assert nfg_as_markov(moved).baseline_reward[:, 0, 0].tobytes() == other.tobytes()
    for concept, kind, config in plans(sigma):
        if kind != CostKind.OFFLINE or config.max_gap:
            continue
        cost = CostSpec(kind)
        got = design(moved, sigma, concept, cost, config)
        want = design(NormalFormGame(game.action_sets, other), sigma, concept, cost, config)
        assert_same(got, want, (k, concept, "replaced"))
        if got.status == LpStatus.OPTIMAL:
            recomputed = evaluate_cost(nfg_as_markov(moved), policy, cost, got.reward)
            assert got.objective == pytest.approx(recomputed, abs=1e-9)

    for arr in cached_arrays(game, sigma):
        assert not arr.flags.writeable
        if arr.size:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]
    return optimal


def run_battery(num_cases: int) -> None:
    optimal = sum(check_case(k) for k in range(num_cases))
    assert optimal >= num_cases


def test_repeated_designs_match_fresh_objects():
    run_battery(16)


@pytest.mark.skipif(
    os.environ.get("EQDESIGN_SLOW") != "1",
    reason="about 10 s; set EQDESIGN_SLOW=1 to run",
)
def test_large_cache_battery():
    run_battery(160)
