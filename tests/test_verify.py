"""Verifier tests: value recursion, visitation, best responses, gap tables.

Cross-checks run against explicit-loop recomputations, batched random
deviation policies, and the one-stage oracle, so no expected number here
comes from the code path under test.
"""

import collections
import importlib
import math

import numpy as np
import pytest

from eqdesign import (
    Concept,
    DeviationClass,
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    NotProductError,
    RewardFunction,
    ShapeError,
    best_response,
    check_strict,
    conditional_matrix,
    nfg_as_markov,
    nfg_oracle,
    policy_eval,
    strategy_as_policy,
    visitation,
)

from conftest import (
    is_product,
    make_rng,
    random_policy,
    random_reward,
    random_skeleton,
    sigma_corr,
    zero_game,
)

games_module = importlib.import_module("eqdesign.games")
verify_module = importlib.import_module("eqdesign.verify")


def embed(utility, sigma):
    """One-stage skeleton, reward, and policy for a normal-form instance."""
    u = np.asarray(utility, dtype=float)
    n = u.shape[0]
    counts = sigma.action_counts
    reward = RewardFunction(
        rewards=u.reshape((n, 1, 1) + counts),
        bound=float(max(np.max(np.abs(u)), 1.0)),
    )
    return nfg_as_markov(zero_game(counts, n)), reward, strategy_as_policy(sigma)


def loop_values(skeleton, reward, policy):
    """policy_eval recomputed with explicit Python loops."""
    n = skeleton.num_players
    horizon, num_s = skeleton.horizon, skeleton.num_states
    counts = skeleton.action_counts
    v = np.zeros((n, horizon + 1, num_s))
    for h in range(horizon - 1, -1, -1):
        for s in range(num_s):
            for i in range(n):
                total = 0.0
                for cell in np.ndindex(*counts):
                    cont = sum(
                        skeleton.transitions[(h, s) + cell + (t,)]
                        * v[i, h + 1, t]
                        for t in range(num_s)
                    )
                    total += policy.stages[h][s][cell] * (
                        reward.rewards[(i, h, s) + cell] + cont
                    )
                v[i, h, s] = total
    return v


def deviation_values(skeleton, reward, policy, player, deltas):
    """Value at every (h, s) of a batch of stochastic Markov deviations.

    ``deltas[b, h, s]`` is the deviator's own stage distribution; everyone
    else stays on the target policy.  Returns shape (batch, horizon + 1,
    num_states).
    """
    horizon, num_s = skeleton.horizon, skeleton.num_states
    count = skeleton.action_counts[player]
    batch = deltas.shape[0]
    v = np.zeros((batch, horizon + 1, num_s))
    for h in range(horizon - 1, -1, -1):
        for s in range(num_s):
            ev = np.tensordot(
                skeleton.transitions[h, s], v[:, h + 1].T, axes=([-1], [0])
            )
            payoff = reward.rewards[player, h, s][..., None] + ev
            mat = np.moveaxis(payoff, player, 0).reshape(count, -1, batch)
            marg = policy.stage(h, s).opponent_marginal(player).reshape(-1)
            rows = np.einsum("mrb,r->mb", mat, marg)
            v[:, h, s] = np.einsum("mb,bm->b", rows, deltas[:, h, s])
    return v


class TestPolicyEval:
    def test_matches_loop_recompute(self):
        for k in range(8):
            rng = make_rng(f"pe-loop-{k}")
            sk = random_skeleton(rng)
            pol = random_policy(rng, sk)
            rw = random_reward(rng, sk)
            vals = policy_eval(sk, rw, pol)
            assert np.allclose(vals.v, loop_values(sk, rw, pol), atol=1e-12)

    def test_value_magnitude_bounded_by_horizon(self):
        for k in range(8):
            rng = make_rng(f"pe-bound-{k}")
            sk = random_skeleton(rng)
            pol = random_policy(rng, sk)
            rw = random_reward(rng, sk, bound=1.7)
            vals = policy_eval(sk, rw, pol)
            cap = sk.horizon * float(np.max(np.abs(rw.rewards)))
            assert np.max(np.abs(vals.v)) <= cap + 1e-12
            assert np.all(vals.v[:, -1] == 0.0)

    def test_rejects_mismatched_shapes(self):
        rng = make_rng("pe-shapes")
        sk = random_skeleton(rng)
        pol = random_policy(rng, sk)
        bad = RewardFunction(
            rewards=np.zeros(
                (sk.num_players, sk.horizon + 1, sk.num_states)
                + sk.action_counts
            ),
            bound=1.0,
        )
        with pytest.raises(ShapeError):
            policy_eval(sk, bad, pol)


class TestVisitation:
    def test_each_stage_sums_to_one(self):
        for k in range(8):
            rng = make_rng(f"visit-sum-{k}")
            sk = random_skeleton(rng)
            pol = random_policy(rng, sk)
            mu = visitation(sk, pol)
            sums = mu.reshape(sk.horizon, -1).sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-12)

    def test_matches_forward_loop(self):
        rng = make_rng("visit-loop")
        sk = random_skeleton(rng)
        pol = random_policy(rng, sk)
        mu = visitation(sk, pol)
        dist = sk.initial_dist.copy()
        for h in range(sk.horizon):
            for s in range(sk.num_states):
                expect = dist[s] * pol.stages[h][s]
                assert np.allclose(mu[h, s], expect, atol=1e-12)
            new = np.zeros(sk.num_states)
            for s in range(sk.num_states):
                for cell in np.ndindex(*sk.action_counts):
                    new += mu[(h, s) + cell] * sk.transitions[(h, s) + cell]
            dist = new


class TestBestResponse:
    def test_dominates_random_stochastic_deviations(self):
        for k in range(5):
            rng = make_rng(f"br-dom-{k}")
            sk = random_skeleton(rng)
            pol = random_policy(rng, sk)
            rw = random_reward(rng, sk)
            player = int(rng.integers(sk.num_players))
            br = best_response(sk, rw, pol, player)
            count = sk.action_counts[player]
            deltas = rng.dirichlet(
                np.full(count, 0.6),
                size=(400, sk.horizon, sk.num_states),
            )
            # The argmax policy must be achievable, making the bound tight.
            argmax = np.zeros((1, sk.horizon, sk.num_states, count))
            for h in range(sk.horizon):
                for s in range(sk.num_states):
                    argmax[0, h, s, br.actions[h, s]] = 1.0
            vals = deviation_values(
                sk, rw, pol, player, np.concatenate([deltas, argmax])
            )
            assert np.all(vals <= br.v[None] + 1e-9)
            assert np.allclose(vals[-1], br.v, atol=1e-9)
            start = sk.initial_dist @ br.v[0]
            assert float(np.max(vals[:, 0] @ sk.initial_dist)) == pytest.approx(
                start, abs=1e-9
            )

    def test_never_target_excludes_single_support_action(self):
        rng = make_rng("br-nt")
        sk = random_skeleton(rng, max_states=2, max_horizon=3)
        stages = np.zeros((sk.horizon, sk.num_states) + sk.action_counts)
        pure = (0,) * sk.num_players
        stages[(slice(None), slice(None)) + pure] = 1.0
        pol = MarkovPolicy(stages=stages)
        rw = random_reward(rng, sk)
        free = best_response(sk, rw, pol, 0)
        banned = best_response(sk, rw, pol, 0, DeviationClass.NEVER_TARGET)
        assert np.all(banned.actions != 0)
        assert np.all(banned.v <= free.v + 1e-12)

    def test_never_target_needs_a_spare_action(self):
        sk = nfg_as_markov(zero_game((1, 2)))
        rw = RewardFunction(rewards=np.zeros((2, 1, 1, 1, 2)), bound=1.0)
        pol = strategy_as_policy(JointMixedStrategy(np.full((1, 2), 0.5)))
        with pytest.raises(ValueError, match="no action"):
            best_response(sk, rw, pol, 0, DeviationClass.NEVER_TARGET)

    def test_rejects_never_recommended(self):
        sk, rw, pol = embed(np.zeros((2, 2, 2)), sigma_corr())
        with pytest.raises(ValueError, match="recommendation"):
            best_response(sk, rw, pol, 0, DeviationClass.NEVER_RECOMMENDED)

    def test_tie_breaks_to_lowest_action(self):
        sk, rw, pol = embed(np.zeros((2, 2, 2)), sigma_corr())
        br = best_response(sk, rw, pol, 0)
        assert np.all(br.actions == 0)

    def test_rejects_bad_player(self):
        sk, rw, pol = embed(np.zeros((2, 2, 2)), sigma_corr())
        with pytest.raises(ShapeError):
            best_response(sk, rw, pol, 2)


class TestCheckStrict:
    def test_matches_one_stage_oracle(self, strategy_grid):
        worst = 0.0
        for tag, sigma in strategy_grid:
            rng = make_rng(f"oracle-{tag}")
            utility = rng.uniform(-2.0, 2.0, (2,) + sigma.action_counts)
            sk, rw, pol = embed(utility, sigma)
            concepts = [Concept.CE, Concept.CCE]
            if is_product(sigma):
                concepts.append(Concept.NE)
            for concept in concepts:
                rep = check_strict(sk, rw, pol, concept)
                ora = nfg_oracle(utility, sigma, concept)
                assert set(rep.per_constraint) == set(ora.per_constraint), tag
                for key, gap in rep.per_constraint.items():
                    worst = max(worst, abs(gap - ora.per_constraint[key]))
                assert rep.argmin == ora.argmin, tag
        assert worst <= 1e-12

    def test_ce_gaps_decompose_deviation_value(self):
        # Swapping recommendations and replaying must lose exactly the
        # visitation-weighted sum of the reported per-recommendation gaps.
        for k in range(6):
            rng = make_rng(f"ce-pdl-{k}")
            sk = random_skeleton(rng)
            pol = random_policy(rng, sk)
            rw = random_reward(rng, sk)
            player = int(rng.integers(sk.num_players))
            count = sk.action_counts[player]
            phis = rng.integers(
                0, count, size=(sk.horizon, sk.num_states, count)
            )
            rep = check_strict(sk, rw, pol, Concept.CE)
            stages = np.zeros_like(np.asarray(pol.stages))
            for h in range(sk.horizon):
                for s in range(sk.num_states):
                    moved = np.moveaxis(
                        np.asarray(pol.stages[h][s]), player, 0
                    )
                    out = np.zeros_like(moved)
                    for j in range(count):
                        out[phis[h, s, j]] += moved[j]
                    stages[h, s] = np.moveaxis(out, 0, player)
            swapped = MarkovPolicy(stages=stages)
            lhs = sk.initial_dist @ (
                policy_eval(sk, rw, pol).v[player, 0]
                - policy_eval(sk, rw, swapped).v[player, 0]
            )
            mu = visitation(sk, swapped)
            state_mass = mu.reshape(sk.horizon, sk.num_states, -1).sum(axis=2)
            rhs = 0.0
            for h in range(sk.horizon):
                for s in range(sk.num_states):
                    p, _ = conditional_matrix(pol.stage(h, s), player)
                    for j in np.flatnonzero(p > 0.0):
                        k2 = int(phis[h, s, j])
                        if k2 == int(j):
                            continue
                        rhs += (
                            state_mass[h, s]
                            * p[j]
                            * rep.per_constraint[(player, h, s, int(j), k2)]
                        )
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_single_action_player_has_no_constraints(self):
        sigma = JointMixedStrategy(np.array([[0.5, 0.5]]))
        sk, rw, pol = embed(np.zeros((2, 1, 2)), sigma)
        for concept in (Concept.CE, Concept.CCE):
            rep = check_strict(sk, rw, pol, concept)
            assert all(key[0] == 1 for key in rep.per_constraint)

    def test_no_constraints_reports_infinite_gap(self):
        sigma = JointMixedStrategy(np.ones((1, 1)))
        sk, rw, pol = embed(np.zeros((2, 1, 1)), sigma)
        rep = check_strict(sk, rw, pol, Concept.CCE)
        assert rep.min_gap == math.inf
        assert rep.argmin is None and rep.strict

    def test_epsilon_threshold_is_strict(self):
        utility = np.zeros((2, 2, 2))
        utility[0, 0, :] = 1.0
        utility[1, :, 0] = 1.0
        sigma = JointMixedStrategy(np.array([[1.0, 0.0], [0.0, 0.0]]))
        sk, rw, pol = embed(utility, sigma)
        rep = check_strict(sk, rw, pol, Concept.CCE, epsilon=1.0)
        assert rep.min_gap == pytest.approx(1.0, abs=1e-12)
        assert not rep.strict
        assert check_strict(sk, rw, pol, Concept.CCE, epsilon=0.999).strict

    def test_argmin_tie_breaks_to_first_key(self):
        sigma = JointMixedStrategy(np.full((2, 2), 0.25))
        sk, rw, pol = embed(np.zeros((2, 2, 2)), sigma)
        rep = check_strict(sk, rw, pol, Concept.CCE)
        assert rep.min_gap == 0.0
        assert rep.argmin == (0, 0, 0, 0)

    def test_nash_requires_product_stages(self):
        sk, rw, pol = embed(np.zeros((2, 2, 2)), sigma_corr())
        with pytest.raises(NotProductError, match=r"\(h=0, s=0\)"):
            check_strict(sk, rw, pol, Concept.NE)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_epsilon(self, epsilon):
        # A margin that compares false (or true) with every gap is no
        # verdict: the input is rejected instead.
        sk, rw, pol = embed(np.zeros((2, 2, 2)), sigma_corr())
        with pytest.raises(ValueError, match="must be finite"):
            check_strict(sk, rw, pol, Concept.CCE, epsilon=epsilon)

    def test_class_concept_compatibility(self):
        sk, rw, pol = embed(np.zeros((2, 2, 2)), sigma_corr())
        with pytest.raises(ValueError, match="CE concept only"):
            check_strict(
                sk, rw, pol, Concept.CCE,
                dev_class=DeviationClass.NEVER_RECOMMENDED,
            )
        with pytest.raises(ValueError, match="concepts only"):
            check_strict(
                sk, rw, pol, Concept.CE,
                dev_class=DeviationClass.NEVER_TARGET,
            )


class TestPreconditions:
    def test_check_strict_checks_once_and_keeps_its_masks(self, monkeypatch):
        # One shape check and one concept check per call, not one more per
        # player through best_response; the deviation masks are the policy's.
        rng = make_rng("verify-preconditions")
        counts = (2, 2, 2)
        sk = MarkovGameSkeleton(
            action_sets=(("a", "b"),) * 3,
            states=("s0", "s1"),
            horizon=2,
            transitions=rng.dirichlet(np.ones(2), size=(2, 2, 8)).reshape(
                (2, 2) + counts + (2,)
            ),
            initial_dist=np.array([0.4, 0.6]),
        )
        pol = random_policy(rng, sk)
        rw = random_reward(rng, sk)
        calls = collections.Counter()
        for name in ("_check_shapes", "require", "deviation_mask"):
            inner = getattr(verify_module, name)

            def counting(*args, name=name, inner=inner, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(verify_module, name, counting)
        first = check_strict(sk, rw, pol, Concept.CCE)
        assert calls == {"_check_shapes": 1, "require": 1, "deviation_mask": 3}
        calls.clear()
        assert check_strict(sk, rw, pol, Concept.CCE) == first
        assert calls["deviation_mask"] == 0
        for arr in pol.derived(verify_module._deviations, Concept.CCE, 0):
            assert not arr.flags.writeable


class TestNfgOracle:
    def test_rejects_wrong_utility_shape(self):
        with pytest.raises(ShapeError):
            nfg_oracle(np.zeros((2, 3, 2)), sigma_corr(), Concept.CCE)

    def test_nash_oracle_requires_product(self):
        with pytest.raises(NotProductError):
            nfg_oracle(np.zeros((2, 2, 2)), sigma_corr(), Concept.NE)

    def test_one_action_player_has_no_deviations(self):
        # Player 0 has one action: no CE pair and no coarse deviation of its
        # own, on the oracle's side as on check_strict's.
        sigma = JointMixedStrategy(np.array([[0.2, 0.5, 0.3]]))
        utility = make_rng("oracle-one-action").uniform(-2.0, 2.0, (2, 1, 3))
        sk, rw, pol = embed(utility, sigma)
        for concept in (Concept.CE, Concept.CCE):
            ora = nfg_oracle(utility, sigma, concept).per_constraint
            assert ora and all(key[0] == 1 for key in ora), concept
            assert check_strict(sk, rw, pol, concept).per_constraint == ora

    def test_independent_of_the_conditional_table(self, monkeypatch):
        # Breaking the rule that builds the cached conditional tables moves
        # check_strict, which reads them, but not the oracle.
        probs = np.array([[0.3, 0.1], [0.05, 0.25], [0.2, 0.1]])
        utility = make_rng("oracle-independent").uniform(-2.0, 2.0, (2, 3, 2))
        honest = nfg_oracle(utility, JointMixedStrategy(probs), Concept.CE)
        sk, rw, pol = embed(utility, JointMixedStrategy(probs))
        true_gaps = check_strict(sk, rw, pol, Concept.CE).per_constraint
        build = games_module._conditionals

        def reversed_rows(stages, player):
            p, conds = build(stages, player)
            return p, conds[..., ::-1, :]

        monkeypatch.setattr(games_module, "_conditionals", reversed_rows)
        sigma = JointMixedStrategy(probs)
        assert nfg_oracle(utility, sigma, Concept.CE) == honest
        sk, rw, pol = embed(utility, sigma)
        assert check_strict(sk, rw, pol, Concept.CE).per_constraint != true_gaps

    def test_weak_boundary_keeps_replica_out_of_gaps(self):
        # A pure target's own action replicates play, so only genuine
        # deviations appear; the remaining gap measures the payoff drop.
        utility = np.zeros((2, 2, 2))
        utility[0, 0, :] = 3.0
        utility[0, 1, :] = 1.0
        sigma = JointMixedStrategy(np.array([[1.0, 0.0], [0.0, 0.0]]))
        rep = nfg_oracle(utility, sigma, Concept.CCE)
        assert (0, 0, 0, 0) not in rep.per_constraint
        assert rep.per_constraint[(0, 0, 0, 1)] == pytest.approx(2.0)
