import math

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
    MarkovPolicy,
    RewardFunction,
    ShapeError,
    StageCheckError,
    build_mg_lp,
    check_strict,
    epsilon_markov_witness,
    gamma_cce,
    gamma_ce,
    markov_witness,
    nfg_oracle,
    policy_eval,
    visitation,
    witness_utility,
)
from conftest import (
    embed,
    epsilon_utility,
    installable_policy,
    make_rng,
    random_sigma,
    random_skeleton,
    sigma_corr,
    sigma_ex,
    three_stage_skeleton,
)


class TestWitnessUtility:
    def test_corr_is_identity_blocks(self):
        u = witness_utility(sigma_corr())
        expected = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(u[0], expected, atol=1e-15)
        np.testing.assert_allclose(u[1], expected, atol=1e-15)

    def test_rows_are_unit_normalized_conditionals(self):
        sigma = sigma_ex()
        u = witness_utility(sigma)
        # row player's third action has conditional (1, 0): already unit
        np.testing.assert_allclose(u[0][2], [1.0, 0.0], atol=1e-15)
        # first two rows are (0.5, 0.5)/sqrt(0.5)
        np.testing.assert_allclose(
            u[0][0], np.array([0.5, 0.5]) / math.sqrt(0.5), atol=1e-12
        )

    def test_unsupported_rows_zero(self):
        probs = np.zeros((2, 2))
        probs[0, 0] = probs[0, 1] = 0.5
        u = witness_utility(JointMixedStrategy(probs))
        np.testing.assert_array_equal(u[0][1], [0.0, 0.0])


class TestGamma:
    def test_corr_values(self):
        assert gamma_ce(sigma_corr()).value == pytest.approx(1.0, abs=1e-12)
        assert gamma_cce(sigma_corr()).value == pytest.approx(0.5, abs=1e-12)

    def test_point_mass_values(self):
        probs = np.zeros((2, 2))
        probs[0, 0] = 1.0
        sigma = JointMixedStrategy(probs)
        assert gamma_ce(sigma).value == pytest.approx(1.0, abs=1e-12)
        assert gamma_cce(sigma).value == pytest.approx(1.0, abs=1e-12)

    def test_skewed_ordered_pair_minimum(self):
        # conditionals (1,0) and (.5,.5): the ordered pair starting from the
        # shorter conditional attains the minimum
        probs = np.array([[0.5, 0.0], [0.25, 0.25]])
        g = gamma_ce(JointMixedStrategy(probs))
        inv = 1.0 / math.sqrt(2.0)
        assert g.value == pytest.approx(inv * (1.0 - inv), abs=1e-12)

    def test_not_installable_flag(self):
        uniform = JointMixedStrategy(np.full((2, 2), 0.25))
        assert gamma_ce(uniform) == (0.0, False)
        assert gamma_cce(uniform) == (0.0, False)

    def test_ce_min_matches_oracle_gap(self, strategy_grid):
        for label, sigma in strategy_grid:
            g = gamma_ce(sigma)
            if not g.installable or not math.isfinite(g.value):
                continue
            rep = nfg_oracle(witness_utility(sigma), sigma, Concept.CE)
            assert rep.min_gap == pytest.approx(g.value, abs=1e-9), label


class TestEpsilonWitness:
    """The epsilon witness of a joint strategy: ``epsilon_markov_witness``
    on its one-stage embedding."""

    def test_ce_scaling_hits_requested_margin(self):
        sigma = sigma_corr()
        cfg = EpsilonConfig(
            epsilon=0.25,
            bound=1.0,
            deviation_class=DeviationClass.NEVER_RECOMMENDED,
        )
        u = epsilon_utility(sigma, Concept.CE, cfg)
        rep = nfg_oracle(u, sigma, Concept.CE)
        assert rep.min_gap == pytest.approx(0.25, abs=1e-12)

    def test_epsilon_above_capacity_errors(self):
        sigma = sigma_corr()
        cfg = EpsilonConfig(
            epsilon=0.51, bound=1.0, deviation_class=DeviationClass.UNRESTRICTED
        )
        with pytest.raises(StageCheckError) as err:
            epsilon_utility(sigma, Concept.CCE, cfg)
        assert err.value.stage == (0, 0)
        assert err.value.max_gap == pytest.approx(0.5, abs=1e-12)

    def test_nash_pays_double_bound(self):
        probs = np.zeros((2, 3))
        probs[1, 2] = 1.0
        sigma = JointMixedStrategy(probs)
        cfg = EpsilonConfig(
            epsilon=1.0, bound=2.0, deviation_class=DeviationClass.NEVER_TARGET
        )
        u = epsilon_utility(sigma, Concept.NE, cfg)
        assert u[0, 1, 2] == 2.0
        assert u.min() == -2.0
        rep = nfg_oracle(u, sigma, Concept.NE)
        assert rep.min_gap == 4.0

    def test_nash_rejects_unrestricted(self):
        probs = np.zeros((2, 2))
        probs[0, 0] = 1.0
        cfg = EpsilonConfig(
            epsilon=0.5, bound=1.0, deviation_class=DeviationClass.UNRESTRICTED
        )
        with pytest.raises(ValueError):
            epsilon_utility(JointMixedStrategy(probs), Concept.NE, cfg)

    def test_nash_rejects_mixed_target(self):
        sigma = JointMixedStrategy(np.outer([0.5, 0.5], [1.0, 0.0]))
        cfg = EpsilonConfig(
            epsilon=0.5, bound=1.0, deviation_class=DeviationClass.NEVER_TARGET
        )
        with pytest.raises(StageCheckError):
            epsilon_utility(sigma, Concept.NE, cfg)

    def test_ce_demands_never_recommended_class(self):
        cfg = EpsilonConfig(
            epsilon=0.1, bound=1.0, deviation_class=DeviationClass.UNRESTRICTED
        )
        with pytest.raises(ValueError):
            epsilon_utility(sigma_corr(), Concept.CE, cfg)

    def test_coarse_rejects_single_support_player_with_spare_actions(self):
        probs = np.zeros((2, 2))
        probs[0, 0] = probs[0, 1] = 0.5
        cfg = EpsilonConfig(
            epsilon=0.1, bound=1.0, deviation_class=DeviationClass.UNRESTRICTED
        )
        with pytest.raises(StageCheckError):
            epsilon_utility(JointMixedStrategy(probs), Concept.CCE, cfg)

    def test_not_installable_rejected(self):
        cfg = EpsilonConfig(
            epsilon=0.1, bound=1.0, deviation_class=DeviationClass.UNRESTRICTED
        )
        uniform = JointMixedStrategy(np.full((2, 2), 0.25))
        with pytest.raises(StageCheckError):
            epsilon_utility(uniform, Concept.CCE, cfg)

    def test_largest_epsilon_stays_within_the_bound(self):
        # At epsilon = bound * gamma the scale eps / gamma can round above
        # the bound; the witness must still fit a reward of that bound and
        # carry the margin.
        checked = 0
        for k in range(300):
            rng = make_rng(f"eps-at-cap-{k}")
            counts = tuple(
                int(c) for c in rng.integers(2, 4, size=int(rng.integers(2, 4)))
            )
            cells = int(np.prod(counts))
            support = rng.choice(
                cells, size=int(rng.integers(1, cells + 1)), replace=False
            )
            probs = np.zeros(cells)
            probs[support] = rng.dirichlet(np.ones(support.size))
            sigma = JointMixedStrategy(probs.reshape(counts))
            bound = float(rng.uniform(0.3, 7.0))
            for concept, gamma, dev in (
                (Concept.CE, gamma_ce, DeviationClass.NEVER_RECOMMENDED),
                (Concept.CCE, gamma_cce, DeviationClass.UNRESTRICTED),
            ):
                g = gamma(sigma)
                if not (g.installable and math.isfinite(g.value)):
                    continue
                eps = bound * g.value
                cfg = EpsilonConfig(eps, bound, dev)
                try:
                    u = epsilon_utility(sigma, concept, cfg)
                except StageCheckError:
                    continue
                assert np.abs(u).max() <= bound, (k, concept)
                skeleton, policy = embed(sigma)
                rep = check_strict(
                    skeleton,
                    RewardFunction(u[:, None, None], bound),
                    policy,
                    concept,
                    dev_class=dev,
                )
                assert rep.min_gap >= eps - 1e-9, (k, concept)
                checked += 1
        assert checked >= 300

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EpsilonConfig(epsilon=-0.1, bound=1.0)
        with pytest.raises(ValueError):
            EpsilonConfig(epsilon=0.1, bound=0.0)


class TestMarkovWitness:
    def _fixture(self, tag: str, horizon=3, states=2):
        rng = make_rng(tag)
        skeleton = random_skeleton(
            rng, max_states=states, max_horizon=horizon, max_actions=2
        )
        policy = installable_policy(rng, skeleton)
        return skeleton, policy

    def test_reward_and_value_bounds(self):
        skeleton, policy = self._fixture("mw-bounds")
        bound = 1.5
        reward = markov_witness(policy, skeleton, bound)
        assert np.max(np.abs(reward.rewards)) <= bound
        values = policy_eval(skeleton, reward, policy)
        assert np.max(np.abs(values.v)) <= bound / 2

    def test_every_stage_strict(self):
        skeleton, policy = self._fixture("mw-strict")
        reward = markov_witness(policy, skeleton, 2.0)
        rep = check_strict(skeleton, reward, policy, Concept.CCE)
        assert rep.min_gap > 0.0
        seen = {(h, s) for (_, h, s, *_rest) in rep.per_constraint}
        expected = {
            (h, s)
            for h in range(skeleton.horizon)
            for s in range(skeleton.num_states)
        }
        assert seen == expected

    def test_uninstallable_stage_reported(self):
        skeleton, policy = self._fixture("mw-bad")
        stages = np.array(policy.stages)
        stages[0, 0] = np.full(skeleton.action_counts, 0.0)
        stages[0, 0] = np.outer(
            [0.5, 0.5], [0.5, 0.5]
        ).reshape(skeleton.action_counts)
        bad = MarkovPolicy(stages=stages)
        with pytest.raises(StageCheckError) as err:
            markov_witness(bad, skeleton, 1.0)
        assert err.value.stage == (0, 0)

    def test_uninstallable_stage_carries_no_margin(self):
        # Only the epsilon witness's infeasible margins set max_gap.
        skeleton, policy = self._fixture("mw-no-margin")
        stages = np.array(policy.stages)
        stages[-1, -1] = np.full(skeleton.action_counts, 1.0 / stages[0, 0].size)
        with pytest.raises(StageCheckError) as err:
            markov_witness(MarkovPolicy(stages=stages), skeleton, 1.0, Concept.CE)
        assert err.value.stage == (skeleton.horizon - 1, skeleton.num_states - 1)
        assert err.value.max_gap is None

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.inf, math.nan])
    def test_bound_must_be_finite_and_positive(self, bound):
        skeleton, policy = self._fixture("mw-bound")
        with pytest.raises(ValueError, match=f"bound {bound} must be finite and > 0"):
            markov_witness(policy, skeleton, bound)

    def test_one_stage_matches_plain_witness(self):
        rng = make_rng("mw-one-stage")
        skeleton = random_skeleton(rng, max_states=1, max_horizon=1)
        sigma = random_sigma(rng, skeleton.action_counts)
        policy = MarkovPolicy(
            stages=sigma.probs.reshape((1, 1) + skeleton.action_counts)
        )
        # One stage has no continuation, so its stage bound is the bound.
        reward = markov_witness(policy, skeleton, 2.0)
        expected = 2.0 * witness_utility(sigma)
        np.testing.assert_allclose(
            reward.rewards[:, 0, 0], expected, atol=1e-12
        )


class TestEpsilonMarkovWitness:
    def test_stage_margin_at_split_bound(self):
        rng = make_rng("emw")
        skeleton = random_skeleton(rng, max_states=2, max_horizon=3, max_actions=2)
        policy = installable_policy(rng, skeleton, allow_pure=False)
        caps = [
            gamma_cce(policy.stage(h, s)).value
            for h in range(skeleton.horizon)
            for s in range(skeleton.num_states)
        ]
        bound = 3.0
        eps = 0.5 * min(caps) * bound / skeleton.horizon
        cfg = EpsilonConfig(
            epsilon=eps, bound=bound, deviation_class=DeviationClass.UNRESTRICTED
        )
        reward = epsilon_markov_witness(policy, skeleton, Concept.CCE, cfg)
        assert np.max(np.abs(reward.rewards)) <= bound
        rep = check_strict(
            skeleton, reward, policy, Concept.CCE, epsilon=eps * (1 - 1e-9)
        )
        assert rep.strict
        assert rep.min_gap >= eps - 1e-9

    @pytest.mark.parametrize("concept", list(Concept), ids=lambda c: c.value)
    def test_half_the_bound_per_stage_beyond_two_stages(self, concept):
        # A reward is its stage utility minus the next stage's on-path
        # value, so stage utilities within B / 2 keep it in the box at any
        # horizon: at H = 3 the margin reaches 0.9 of (B / 2) * gamma, and
        # 0.9 B for pure Nash.
        bound = 2.0
        for k in range(4):
            rng = make_rng(f"emw-h3-{concept.value}-{k}")
            skeleton = three_stage_skeleton(rng)
            cells = list(np.ndindex(skeleton.horizon, skeleton.num_states))
            if concept == Concept.NE:
                stages = np.zeros((3, skeleton.num_states) + skeleton.action_counts)
                for h, s in cells:
                    profile = tuple(rng.integers(0, c) for c in skeleton.action_counts)
                    stages[(h, s) + profile] = 1.0
                policy = MarkovPolicy(stages=stages)
                eps, dev = 0.9 * bound, DeviationClass.NEVER_TARGET
            else:
                policy = installable_policy(rng, skeleton, allow_pure=False)
                gamma = gamma_ce if concept == Concept.CE else gamma_cce
                low = min(gamma(policy.stage(h, s)).value for h, s in cells)
                eps = 0.9 * 0.5 * bound * low
                dev = (
                    DeviationClass.NEVER_RECOMMENDED
                    if concept == Concept.CE
                    else DeviationClass.UNRESTRICTED
                )
            cfg = EpsilonConfig(epsilon=eps, bound=bound, deviation_class=dev)
            reward = epsilon_markov_witness(policy, skeleton, concept, cfg)
            assert np.max(np.abs(reward.rewards)) <= bound
            rep = check_strict(skeleton, reward, policy, concept, dev_class=dev)
            assert rep.min_gap >= eps - 1e-9, k

    def test_zero_epsilon_at_zero_gamma(self):
        # Installable, yet gamma rounds to 0: epsilon 0 is carried by the
        # zero reward rather than by a division by gamma.
        sigma = JointMixedStrategy(
            np.array([[0.25, 0.25], [0.25 + 2e-9, 0.25 - 2e-9]])
        )
        skeleton, policy = embed(sigma)
        for concept, dev in (
            (Concept.CE, DeviationClass.NEVER_RECOMMENDED),
            (Concept.CCE, DeviationClass.UNRESTRICTED),
        ):
            gamma = gamma_ce(sigma) if concept == Concept.CE else gamma_cce(sigma)
            assert gamma == (0.0, True)
            cfg = EpsilonConfig(epsilon=0.0, bound=1.0, deviation_class=dev)
            reward = epsilon_markov_witness(policy, skeleton, concept, cfg)
            assert not np.any(reward.rewards)

    def test_pure_stage_blocks_coarse_margin(self):
        rng = make_rng("emw-pure")
        skeleton = random_skeleton(rng, max_states=1, max_horizon=2, max_actions=2)
        stages = np.zeros((skeleton.horizon, 1) + skeleton.action_counts)
        stages[:, :, 0, 0] = 1.0
        policy = MarkovPolicy(stages=stages)
        cfg = EpsilonConfig(
            epsilon=0.1, bound=1.0, deviation_class=DeviationClass.UNRESTRICTED
        )
        with pytest.raises(StageCheckError):
            epsilon_markov_witness(policy, skeleton, Concept.CCE, cfg)


def test_coarse_witnesses_reject_never_recommended():
    # check_strict cannot measure CCE against recommendation-aware
    # deviations, so neither epsilon witness may promise a margin there.
    cfg = EpsilonConfig(
        epsilon=0.1, bound=1.0,
        deviation_class=DeviationClass.NEVER_RECOMMENDED,
    )
    sigma = sigma_corr()
    with pytest.raises(ValueError, match="CE concept only"):
        epsilon_utility(sigma, Concept.CCE, cfg)
    rng = make_rng("emw-nr")
    skeleton = random_skeleton(rng, max_states=2, max_horizon=2, max_actions=2)
    policy = installable_policy(rng, skeleton, allow_pure=False)
    with pytest.raises(ValueError, match="CE concept only"):
        epsilon_markov_witness(policy, skeleton, Concept.CCE, cfg)


def test_policy_misfit_raises_one_error_everywhere():
    skeleton = random_skeleton(make_rng("misfit"), max_states=2, max_horizon=2)
    horizon, num_s = skeleton.horizon, skeleton.num_states
    counts = skeleton.action_counts
    reward = RewardFunction(
        rewards=np.zeros((skeleton.num_players, horizon, num_s) + counts),
        bound=1.0,
    )
    eps_cfg = EpsilonConfig(
        epsilon=0.01, bound=1.0, deviation_class=DeviationClass.UNRESTRICTED
    )
    calls = (
        lambda pol: build_mg_lp(
            skeleton, pol, Concept.CCE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.1, bound=1.0),
        ),
        lambda pol: check_strict(skeleton, reward, pol, Concept.CCE),
        lambda pol: visitation(skeleton, pol),
        lambda pol: markov_witness(pol, skeleton, 1.0),
        lambda pol: epsilon_markov_witness(pol, skeleton, Concept.CCE, eps_cfg),
    )
    for shape in (
        (horizon + 1, num_s) + counts,
        (horizon, num_s + 1) + counts,
        (horizon, num_s) + counts[:-1] + (counts[-1] + 1,),
    ):
        policy = MarkovPolicy(stages=np.full(shape, 1.0 / np.prod(shape[2:])))
        messages = set()
        for call in calls:
            with pytest.raises(ShapeError, match="does not fit") as err:
                call(policy)
            messages.add(str(err.value))
        assert len(messages) == 1, messages
