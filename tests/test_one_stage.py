"""One-shot games against their one-stage embeddings.

A normal-form game is the one-stage, one-state Markov game
(``nfg_as_markov``, ``strategy_as_policy``), and the package has one route
for both.  On a seeded sample of one-shot targets and games this battery
checks that route against the one-shot API and against the independent
one-stage oracle ``nfg_oracle``:

- ``check`` equals ``check_markov`` at stage (0, 0), errors included;
- ``markov_witness`` on the embedding is the bound times
  ``witness_utility`` (the stage bound ``B / min(H, 2)`` is ``B`` at
  ``H = 1``), byte for byte, and fails exactly when ``check`` does;
- ``epsilon_markov_witness`` on the embedding is the epsilon witness written
  from its definition with the one-shot API, byte for byte, with the same
  stage error, message and largest margin when it fails;
- ``design`` on a normal-form game and on its embedding give the same
  status, objective, reward bytes and solver steps, for every cost and
  max-gap;
- on every utility built or designed, ``check_strict`` and ``nfg_oracle``
  give the same keys, gaps within 1e-12 and the same argmin.

The default sample runs in a few seconds; ``EQDESIGN_SLOW=1`` runs a ten
times larger one.
"""

import dataclasses
import math
import os
import re

import numpy as np
import pytest

from eqdesign import (
    Concept,
    CostKind,
    CostSpec,
    DesignConfig,
    DeviationClass,
    EpsilonConfig,
    JointMixedStrategy,
    LpStatus,
    NormalFormGame,
    NotProductError,
    StageCheckError,
    check,
    check_markov,
    check_strict,
    design,
    epsilon_markov_witness,
    gamma_cce,
    gamma_ce,
    markov_witness,
    nfg_as_markov,
    nfg_oracle,
    strategy_as_policy,
    witness_utility,
)
from conftest import InfeasibleMargin, epsilon_stage_reference, is_product, make_rng

SHAPES = ((2, 2), (3, 2), (3, 3), (2, 2, 2))
KINDS = ("full", "sparse", "pure", "product")
GAP_TOL = 1e-12
# Deviation classes each concept's witness is asked for; the rejected ones
# must fail the same way on both routes.
CLASSES = {
    Concept.NE: (DeviationClass.NEVER_TARGET, DeviationClass.UNRESTRICTED),
    Concept.CE: (DeviationClass.NEVER_RECOMMENDED, DeviationClass.UNRESTRICTED),
    Concept.CCE: (DeviationClass.UNRESTRICTED, DeviationClass.NEVER_TARGET),
}


def one_shot_case(k: int):
    """Target ``k`` of the sample, on a random game of its shape."""
    rng = make_rng(f"one-stage-{k}")
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
        probs = np.ones(1)
        for c in shape:
            probs = np.multiply.outer(probs, rng.dirichlet(np.ones(c)))
    sigma = JointMixedStrategy(probs.reshape(shape))
    sets = tuple(tuple(f"a{j}" for j in range(c)) for c in shape)
    game = NormalFormGame(sets, rng.uniform(-1.0, 1.0, (len(shape),) + shape))
    return rng, game, sigma


def concepts_for(sigma):
    return (Concept.CE, Concept.CCE) + ((Concept.NE,) if is_product(sigma) else ())


def assert_oracle_agrees(report, utility, sigma, concept) -> int:
    """A ``check_strict`` report on the embedding against ``nfg_oracle`` on
    the same utility."""
    oracle = nfg_oracle(utility, sigma, concept)
    gaps, ref = report.per_constraint, oracle.per_constraint
    assert sorted(gaps) == sorted(ref)
    for key, gap in ref.items():
        assert abs(gaps[key] - gap) <= GAP_TOL, key
    assert report.argmin == oracle.argmin
    return 1


def margin_cap(sigma, concept, bound: float) -> float:
    """The largest epsilon the bound allows: 2B for NE, B * gamma else."""
    if concept == Concept.NE:
        return 2.0 * bound
    gamma = (gamma_ce if concept == Concept.CE else gamma_cce)(sigma).value
    return bound * gamma if math.isfinite(gamma) else bound


def check_case(k: int) -> dict:
    """Every comparison of the module docstring on target ``k``; returns
    how many of each kind ran."""
    rng, game, sigma = one_shot_case(k)
    skeleton, policy = nfg_as_markov(game), strategy_as_policy(sigma)
    counts = dict.fromkeys(("check", "witness", "epsilon", "design", "oracle"), 0)
    bound = float(rng.uniform(0.5, 3.0))

    for concept in (Concept.NE, Concept.CE, Concept.CCE):
        try:
            expected = check(sigma, concept)
        except NotProductError as exc:
            with pytest.raises(NotProductError, match=re.escape(str(exc))):
                check_markov(policy, concept)
            continue
        assert check_markov(policy, concept).stage(0, 0) == expected
        counts["check"] += 1

    for concept in concepts_for(sigma):
        installable = check(sigma, concept).installable
        try:
            reward = markov_witness(policy, skeleton, bound, concept)
        except StageCheckError as exc:
            assert not installable and exc.stage == (0, 0)
        else:
            assert installable
            utility = reward.rewards[:, 0, 0]
            full = bound * witness_utility(sigma)
            assert utility.tobytes() == full.tobytes()
            report = check_strict(skeleton, reward, policy, concept)
            counts["oracle"] += assert_oracle_agrees(report, utility, sigma, concept)
        counts["witness"] += 1

        cap = margin_cap(sigma, concept, bound)
        for eps in (0.0, cap, float(rng.uniform(0.0, 1.2 * cap))):
            for dev in CLASSES[concept]:
                cfg = EpsilonConfig(eps, bound, dev)
                try:
                    want = epsilon_stage_reference(sigma, concept, bound, cfg)
                except InfeasibleMargin as exc:
                    with pytest.raises(StageCheckError) as err:
                        epsilon_markov_witness(policy, skeleton, concept, cfg)
                    assert err.value.stage == (0, 0)
                    assert str(err.value) == f"stage (h=0, s=0): {exc}"
                    assert err.value.max_gap == exc.max_gap
                    continue
                except ValueError as exc:
                    with pytest.raises(ValueError) as err:
                        epsilon_markov_witness(policy, skeleton, concept, cfg)
                    assert type(err.value) is type(exc)
                    assert str(err.value) == str(exc)
                    continue
                got = epsilon_markov_witness(policy, skeleton, concept, cfg)
                assert got.rewards[:, 0, 0].tobytes() == want.tobytes()
                report = check_strict(skeleton, got, policy, concept)
                counts["oracle"] += assert_oracle_agrees(report, want, sigma, concept)
                counts["epsilon"] += 1

    override = rng.uniform(-1.0, 1.0, game.utility.shape)
    for concept in concepts_for(sigma):
        # Half the largest margin of a unit bound; an uninstallable target
        # asks for a little, so its programs are infeasible.
        installable = check(sigma, concept).installable
        slack = 0.5 * margin_cap(sigma, concept, 1.0) if installable else 1e-3
        specs = [(kind, False, None) for kind in CostKind]
        specs += [(CostKind.OFFLINE, False, override), (CostKind.OFFLINE, True, None)]
        for kind, max_gap, base in specs:
            config = DesignConfig(slack=slack, bound=1.0, max_gap=max_gap)
            one_game, two_game = game, skeleton
            if base is not None:
                one_game = NormalFormGame(game.action_sets, base)
                two_game = dataclasses.replace(
                    skeleton, baseline_reward=base[:, None, None]
                )
            one = design(one_game, sigma, concept, CostSpec(kind), config)
            two = design(two_game, policy, concept, CostSpec(kind), config)
            case = (k, concept, kind, max_gap, base is not None)
            assert one.status == two.status, case
            assert one.objective == two.objective, case
            assert one.phase_steps == two.phase_steps, case
            counts["design"] += 1
            if one.status != LpStatus.OPTIMAL:
                assert one.reward is None and two.reward is None, case
                continue
            assert one.reward.rewards.tobytes() == two.reward.rewards.tobytes()
            assert one.utility.tobytes() == one.reward.rewards[:, 0, 0].tobytes()
            counts["oracle"] += assert_oracle_agrees(
                one.report, one.utility, sigma, concept
            )
    return counts


def run_battery(num_cases: int) -> None:
    totals: dict = {}
    for k in range(num_cases):
        for name, count in check_case(k).items():
            totals[name] = totals.get(name, 0) + count
    # Every comparison ran, and the sample reached optimal designs.
    assert min(totals.values()) > 0, totals
    assert totals["oracle"] >= num_cases, totals


def test_one_shot_matches_one_stage_embedding():
    run_battery(32)


@pytest.mark.skipif(
    os.environ.get("EQDESIGN_SLOW") != "1",
    reason="about 15 s; set EQDESIGN_SLOW=1 to run",
)
def test_large_one_shot_battery():
    run_battery(320)
