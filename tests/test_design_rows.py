"""The design program's strictness rows against their per-stage definition.

``build_mg_lp`` builds the weights of every ``(stage, state)`` at once from
the policy's stage arrays and conditional table, and carries them forward by
occupancy.  The reference below builds the weights one stage at a time, as
the constraints read, from the per-stage helpers of ``games``, and
propagates them with the value operator: the verifier's backward induction
run on each of one player's unit rewards, transposed.  Each row is a
stage's weight vector times that stage's block of the operator.  A one-stage
program must equal the reference value for value (only the sign of a zero
may differ); a Markov program's rows and objective lie within 1e-15 of it,
and its right-hand sides within 1e-14.
The program is also checked against the verifier at a reward: its CE rows
give the verifier's gaps and its social objective the verifier's cost.
"""

import dataclasses
import importlib
import os

import numpy as np
import pytest

from eqdesign import (
    Concept,
    CostKind,
    CostSpec,
    DesignConfig,
    DeviationClass,
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    NormalFormGame,
    RewardFunction,
    build_mg_lp,
    build_nfg_lp,
    check_strict,
    evaluate_cost,
    nfg_as_markov,
    strategy_as_policy,
    visitation,
)
from eqdesign.games import conditional_matrix, genuine_deviations
from eqdesign.verify import _backward

from conftest import make_rng

design_module = importlib.import_module("eqdesign.design")
# Largest gap between a Markov program and the reference, per array; an L1
# program's rhs holds each row's dot product with a baseline of up to 3.
TOL = {"a": 1e-15, "b": 1e-14, "objective": 1e-15}


def reference_stage_rows(stage: JointMixedStrategy, concept: Concept) -> list:
    """Strictness rows of one stage as ``(player, w)`` pairs: the margin of
    each deviation constraint is ``w`` dotted with the player's action values
    over the stage's flat joint actions."""
    counts = stage.action_counts
    flat = stage.probs.reshape(-1)
    cells = np.arange(flat.size).reshape(counts)
    rows = []
    for i in range(stage.num_players):
        if counts[i] < 2:
            continue
        own = np.moveaxis(cells, i, 0).reshape(counts[i], -1)
        if concept in (Concept.NE, Concept.CCE):
            marg_other = stage.opponent_marginal(i).reshape(-1)
            for m in genuine_deviations(stage, i):
                w = flat.copy()
                w[own[m]] -= marg_other
                rows.append((i, w))
        else:
            p, conds = conditional_matrix(stage, i)
            for j in np.flatnonzero(p > 0.0):
                for k in range(counts[i]):
                    if k == j:
                        continue
                    w = np.zeros(flat.size)
                    w[own[j]] = conds[j]
                    w[own[k]] = -conds[j]
                    rows.append((i, w))
    return rows


def reference_weights(policy: MarkovPolicy, concept: Concept):
    """``_strict_weights`` stage by stage: ``(stage, state, player,
    weights)`` in (stage, state, player, constraint) order."""
    num_a = int(np.prod(policy.action_counts))
    at, weights = [], []
    for h in range(policy.horizon):
        for s in range(policy.num_states):
            for i, w in reference_stage_rows(policy.stage(h, s), concept):
                at.append((h, s, i))
                weights.append(w)
    stage, state, players = np.reshape(np.array(at, dtype=int), (-1, 3)).T
    return stage, state, players, np.reshape(weights, (len(weights), num_a))


def reference_operator(skeleton: MarkovGameSkeleton, policy: MarkovPolicy):
    """The unit rewards' values by backward induction: the action-value
    operator, whose row ``(h, s, a)`` is the action value there per reward
    entry of one player, and each entry's expected initial value."""
    size = policy.stages.size
    unit = np.eye(size).reshape((size,) + policy.stages.shape)
    v_unit, q_unit = _backward(skeleton, policy, unit)
    return q_unit.reshape(size, size).T, v_unit[:, 0] @ skeleton.initial_dist


def program_arrays(lp) -> dict:
    return {
        "a": np.array([c.coeffs for c in lp.constraints]).reshape(-1, lp.num_vars),
        "b": np.array([c.rhs for c in lp.constraints]),
        "objective": lp.objective,
        "lower": lp.lower,
        "upper": lp.upper,
        "relations": [c.relation for c in lp.constraints],
    }


def reference_program(monkeypatch, skeleton, policy, build) -> dict:
    """``build()`` with the reference weights, the rows propagated through
    the reference operator and its initial values as the visitation."""
    ops, value0 = reference_operator(skeleton, policy)
    propagated = []

    def forward(sk, pol, mu):
        propagated.append(mu.shape[0])
        return (mu.reshape(len(mu), -1) @ ops).reshape(mu.shape)

    with monkeypatch.context() as patch:
        patch.setattr(design_module, "_strict_weights", reference_weights)
        patch.setattr(design_module, "_forward", forward)
        patch.setattr(
            design_module,
            "visitation",
            lambda sk, pol: value0.reshape(pol.stages.shape),
        )
        arrays = program_arrays(build())
    assert len(propagated) == 1
    return arrays


def programs_match(monkeypatch, skeleton, policy, build) -> int:
    """Build with the kernel, then with the reference; assert the programs
    agree, one-stage ones value for value, and return the row count."""
    new = program_arrays(build())
    old = reference_program(monkeypatch, skeleton, policy, build)
    assert new["relations"] == old["relations"]
    for key in ("lower", "upper"):
        assert new[key].tobytes() == old[key].tobytes(), key
    one_stage = policy.stages.shape[:2] == (1, 1)
    for key in ("a", "b", "objective"):
        assert new[key].shape == old[key].shape, key
        if one_stage:
            assert np.array_equal(new[key], old[key]), key
        else:
            gap = np.max(np.abs(new[key] - old[key]), initial=0.0)
            assert gap <= TOL[key], (key, gap)
    return len(new["relations"])


def stage_probs(rng, counts, kind: str) -> np.ndarray:
    """One stage's joint distribution of the given kind."""
    num_a = int(np.prod(counts))
    if kind == "pure":
        probs = np.zeros(num_a)
        probs[rng.integers(num_a)] = 1.0
    elif kind == "sparse":
        probs = np.zeros(num_a)
        cells = rng.choice(num_a, size=max(1, num_a // 2), replace=False)
        probs[cells] = rng.dirichlet(np.ones(cells.size))
    elif kind == "signed-zero":
        # Zeros read as -0.0 from a document pass every input check.
        probs = np.full(num_a, -0.0)
        cells = rng.choice(num_a, size=max(1, num_a // 2), replace=False)
        probs[cells] = rng.dirichlet(np.ones(cells.size))
    elif kind == "product":
        probs = np.ones(())
        for c in counts:
            marg = rng.dirichlet(np.ones(c))
            if rng.random() < 0.3:
                marg = np.eye(c)[rng.integers(c)]
            probs = np.multiply.outer(probs, marg)
    else:
        probs = rng.dirichlet(np.full(num_a, 0.8))
    return probs.reshape(counts)


def grid_game(rng, counts, num_s: int, horizon: int) -> MarkovGameSkeleton:
    num_a = int(np.prod(counts))
    return MarkovGameSkeleton(
        action_sets=tuple(tuple(f"a{k}" for k in range(c)) for c in counts),
        states=tuple(f"s{k}" for k in range(num_s)),
        horizon=horizon,
        transitions=rng.dirichlet(
            np.full(num_s, 0.9), size=(horizon, num_s, num_a)
        ).reshape((horizon, num_s) + counts + (num_s,)),
        initial_dist=rng.dirichlet(np.full(num_s, 0.9)),
        baseline_reward=rng.uniform(
            -1.5, 1.5, (len(counts), horizon, num_s) + counts
        ),
    )


SHAPES = [(2, 2), (3, 2), (2, 3), (1, 3), (3, 1), (2, 2, 2), (2, 1, 3)]
KINDS = ["correlated", "sparse", "pure", "product", "signed-zero"]
COSTS = [(kind, False) for kind in CostKind] + [(CostKind.OFFLINE, True)]


def grid_policies(rng, counts, num_s, horizon):
    """A mixed policy cycling through every stage kind, and an all-product
    one for Nash."""
    cells = horizon * num_s
    mixed = [stage_probs(rng, counts, KINDS[k % len(KINDS)]) for k in range(cells)]
    product = [stage_probs(rng, counts, "product") for _ in range(cells)]
    return [
        (MarkovPolicy(np.reshape(stages, (horizon, num_s) + counts)), concepts)
        for stages, concepts in (
            (mixed, (Concept.CE, Concept.CCE)),
            (product, (Concept.NE, Concept.CE, Concept.CCE)),
        )
    ]


@pytest.mark.parametrize("counts", SHAPES, ids=str)
def test_markov_programs_match_the_per_stage_reference(monkeypatch, counts):
    rng = make_rng(f"design-rows-{counts}")
    rows = 0
    for num_s, horizon in ((3, 2), (2, 1), (1, 1)):
        sk = grid_game(rng, counts, num_s, horizon)
        other = dataclasses.replace(
            sk, baseline_reward=rng.uniform(-3.0, 3.0, sk.baseline_reward.shape)
        )
        for policy, concepts in grid_policies(rng, counts, num_s, horizon):
            for concept in concepts:
                for kind, max_gap in COSTS:
                    # The L1 costs also run from a baseline partly outside the box.
                    l1 = kind in (CostKind.ONLINE, CostKind.OFFLINE) and not max_gap
                    for game in (sk, other) if l1 else (sk,):
                        cost = CostSpec(kind)
                        config = DesignConfig(slack=0.1, bound=2.0, max_gap=max_gap)
                        rows += programs_match(
                            monkeypatch, game, policy,
                            lambda: build_mg_lp(game, policy, concept, cost, config)[0],
                        )
            # The social weights: each reward entry's expected initial value.
            value0 = reference_operator(sk, policy)[1]
            gap = np.abs(visitation(sk, policy).reshape(-1) - value0)
            assert np.max(gap) <= TOL["objective"]
    assert rows > 0


@pytest.mark.parametrize("counts", SHAPES, ids=str)
def test_one_stage_programs_match_the_per_stage_reference(monkeypatch, counts):
    rng = make_rng(f"design-rows-nfg-{counts}")
    for kind_name in KINDS:
        sigma = JointMixedStrategy(stage_probs(rng, counts, kind_name))
        utility = rng.uniform(-1.0, 1.0, (len(counts),) + counts)
        game = nfg_as_markov(
            NormalFormGame(tuple(tuple(range(c)) for c in counts), utility)
        )
        policy = strategy_as_policy(sigma)
        assert np.array_equal(
            visitation(game, policy).reshape(-1), reference_operator(game, policy)[1]
        )
        concepts = [Concept.CE, Concept.CCE]
        if kind_name in ("pure", "product"):
            concepts.append(Concept.NE)
        for concept in concepts:
            for kind, max_gap in COSTS:
                config = DesignConfig(slack=0.05, bound=1.0, max_gap=max_gap)
                programs_match(
                    monkeypatch, game, policy,
                    lambda: build_nfg_lp(
                        sigma, concept, CostSpec(kind), config, baseline=utility
                    )[0],
                )


def test_building_constructs_no_stage_objects(monkeypatch):
    rng = make_rng("design-rows-guard")
    counts = (3, 2)
    sk = grid_game(rng, counts, 3, 2)
    built = []
    post_init = JointMixedStrategy.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    policies = grid_policies(rng, counts, 3, 2)
    monkeypatch.setattr(JointMixedStrategy, "__post_init__", counting)
    for policy, concepts in policies:
        for concept in concepts:
            build_mg_lp(
                sk, policy, concept, CostSpec(CostKind.ONLINE),
                DesignConfig(slack=0.1, bound=2.0),
            )
    assert built == []


def test_one_action_players_give_no_rows(monkeypatch):
    # A player with one action has no deviation and contributes no row.
    rng = make_rng("design-rows-lone")
    game = nfg_as_markov(
        NormalFormGame((("a",), ("b0", "b1", "b2")), rng.uniform(-1.0, 1.0, (2, 1, 3)))
    )
    policy = MarkovPolicy(np.array([[[[0.2, 0.3, 0.5]]]]))
    for concept in (Concept.NE, Concept.CE, Concept.CCE):
        players = policy.derived(design_module._strict_weights, concept)[2]
        assert set(players.tolist()) == {1}
        rows = programs_match(
            monkeypatch, game, policy,
            lambda: build_mg_lp(
                game, policy, concept, CostSpec(CostKind.OFFLINE),
                DesignConfig(slack=0.1, bound=1.0),
            )[0],
        )
        assert rows == (6 if concept == Concept.CE else 3)


@pytest.mark.skipif(
    os.environ.get("EQDESIGN_SLOW") != "1",
    reason="about 3 s and 0.5 GB; set EQDESIGN_SLOW=1 to run",
)
@pytest.mark.parametrize("num_s, horizon", [(12, 8), (16, 10)], ids=str)
def test_large_forward_rows_match_the_reference(num_s, horizon):
    # The 12,8,(4,4) and 16,10,(4,4) rungs: each row, read from the
    # program, against its reference weights times its stage's block.
    counts = (4, 4)
    rng = make_rng(f"design-rows-large-{num_s},{horizon}")
    sk = grid_game(rng, counts, num_s, horizon)
    policy, _ = grid_policies(rng, counts, num_s, horizon)[0]
    ops, _ = reference_operator(sk, policy)
    size = ops.shape[0]
    blocks = ops.reshape(horizon * num_s, -1, size)
    config = DesignConfig(slack=0.1, bound=2.0)
    for concept in (Concept.CCE, Concept.CE):
        lp, _ = build_mg_lp(
            sk, policy, concept, CostSpec(CostKind.SOCIAL_WELFARE), config
        )
        stage, state, players, weights = reference_weights(policy, concept)
        assert len(lp.constraints) == players.size
        for k, row in enumerate(lp.constraints):
            lo = players[k] * size
            want = weights[k] @ blocks[stage[k] * num_s + state[k]]
            got = row.coeffs[lo : lo + size]
            assert np.max(np.abs(got - want)) <= TOL["a"], (concept, k)
            assert not row.coeffs[:lo].any() and not row.coeffs[lo + size :].any()


@pytest.mark.parametrize("counts", SHAPES, ids=str)
def test_program_values_match_the_verifier(counts):
    # The program's operator and the verifier's values come from one
    # backward induction, run on the unit rewards and on the rewards: the
    # CE rows at a reward are its gaps, and the social objective its cost.
    rng = make_rng(f"design-rows-values-{counts}")
    for num_s, horizon in ((3, 2), (2, 3), (2, 1), (1, 1)):
        sk = grid_game(rng, counts, num_s, horizon)
        for policy, _ in grid_policies(rng, counts, num_s, horizon):
            reward = RewardFunction(
                rng.uniform(-2.0, 2.0, sk.baseline_reward.shape), bound=2.0
            )
            flat = reward.rewards.reshape(-1)
            config = DesignConfig(slack=0.0, bound=2.0)
            lp, _ = build_mg_lp(
                sk, policy, Concept.CE, CostSpec(CostKind.SOCIAL_WELFARE), config
            )
            rows = np.array([c.coeffs for c in lp.constraints]).reshape(-1, flat.size)
            report = check_strict(
                sk, reward, policy, Concept.CE,
                dev_class=DeviationClass.NEVER_RECOMMENDED,
            )
            # Rows run in (stage, state, player, recommended, replacement) order.
            keys = sorted(
                report.per_constraint, key=lambda k: (k[1], k[2], k[0]) + k[3:]
            )
            gaps = np.array([report.per_constraint[key] for key in keys])
            assert rows.shape[0] == gaps.size
            assert np.max(np.abs(rows @ flat - gaps), initial=0.0) <= 1e-12
            social = evaluate_cost(
                sk, policy, CostSpec(CostKind.SOCIAL_WELFARE), reward
            )
            assert abs(lp.objective @ flat - social) <= 1e-12
