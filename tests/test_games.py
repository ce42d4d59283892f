import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdesign import (
    DistributionError,
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    NormalFormGame,
    RewardFunction,
    ShapeError,
    clean_distribution,
    conditional_matrix,
    nfg_as_markov,
    strategy_as_policy,
    support,
)
from conftest import (
    conditional,
    is_product,
    make_rng,
    random_policy,
    random_reward,
    random_sigma,
    random_skeleton,
    sigma_corr,
    sigma_ex,
)


def joint_strategies(max_side=3):
    sides = st.tuples(
        st.integers(2, max_side), st.integers(2, max_side)
    )

    def build(shape_weights):
        shape, weights = shape_weights
        arr = np.array(weights[: shape[0] * shape[1]], dtype=float)
        arr = arr + 1e-3
        return JointMixedStrategy((arr / arr.sum()).reshape(shape))

    return st.tuples(
        sides,
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=9, max_size=9
        ),
    ).map(build)


class TestDistributions:
    def test_clean_accepts_dust(self):
        out = clean_distribution([0.5, 0.5 + 1e-12, -1e-12])
        assert out.shape == (3,)
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-15)

    def test_clean_rejects_real_negative(self):
        with pytest.raises(DistributionError):
            clean_distribution([0.7, 0.4, -0.1])

    def test_clean_rejects_bad_sum(self):
        with pytest.raises(DistributionError):
            clean_distribution([0.5, 0.3])

    def test_clean_works_row_by_row(self):
        raw = np.array(
            [[0.5, 0.5 + 1e-12, -1e-12], [0.2, 0.3, 0.5], [1.0 - 3e-10, 0.0, 0.0]]
        )
        out = clean_distribution(raw.reshape(3, 1, 3))
        assert out.shape == (3, 1, 3)
        assert out.min() >= 0.0
        assert out[0, 0, 2] == 0.0
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(out[1, 0], [0.2, 0.3, 0.5])
        raw[2, 1] = -0.1
        with pytest.raises(DistributionError, match=r"^rows\[2\]: negative"):
            clean_distribution(raw, where="rows")

    def test_strategy_rejects_off_sum(self):
        with pytest.raises(DistributionError):
            JointMixedStrategy(np.array([[0.6, 0.0], [0.0, 0.5]]))

    def test_strategy_arrays_frozen(self):
        sigma = sigma_corr()
        with pytest.raises(ValueError):
            sigma.probs[0, 0] = 1.0


class TestConditionals:
    def test_ex_marginals(self):
        sigma = sigma_ex()
        np.testing.assert_allclose(sigma.marginal(0), [0.4, 0.4, 0.2])
        np.testing.assert_allclose(sigma.marginal(1), [0.6, 0.4])

    def test_ex_conditionals(self):
        # the 3x2 fixture: row player's third recommendation pins column 0
        sigma = sigma_ex()
        np.testing.assert_allclose(conditional(sigma, 0, 0).dist, [0.5, 0.5])
        np.testing.assert_allclose(conditional(sigma, 0, 1).dist, [0.5, 0.5])
        np.testing.assert_allclose(conditional(sigma, 0, 2).dist, [1.0, 0.0])
        np.testing.assert_allclose(
            conditional(sigma, 1, 0).dist, [1 / 3, 1 / 3, 1 / 3]
        )
        np.testing.assert_allclose(conditional(sigma, 1, 1).dist, [0.5, 0.5, 0.0])

    def test_unsupported_action_is_zero(self):
        sigma = sigma_corr()
        probs = np.array([[0.5, 0.5], [0.0, 0.0]])
        sigma = JointMixedStrategy(probs)
        cond = conditional(sigma, 0, 1)
        assert cond.is_zero
        assert cond.prob == 0.0
        np.testing.assert_array_equal(cond.dist, [0.0, 0.0])

    def test_support_exact(self):
        sigma = sigma_ex()
        assert support(sigma, 0) == (0, 1, 2)
        assert support(sigma, 1) == (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(joint_strategies())
    def test_matrix_matches_scalar_api(self, sigma):
        for i in range(sigma.num_players):
            p, conds = conditional_matrix(sigma, i)
            np.testing.assert_allclose(p, sigma.marginal(i), atol=1e-15)
            for j in range(sigma.action_counts[i]):
                cond = conditional(sigma, i, j)
                np.testing.assert_allclose(conds[j], cond.flat(), atol=1e-15)

    def test_matrix_is_fresh_and_writable(self):
        # The reference stays independent of the embedding's cached table.
        sigma = sigma_ex()
        table = strategy_as_policy(sigma).conditional_table
        for i, cached in enumerate(table):
            got = conditional_matrix(sigma, i)
            for arr, kept in zip(got, cached):
                np.testing.assert_array_equal(arr, kept[0, 0])
                assert arr.flags.writeable
                assert not any(np.shares_memory(arr, t) for pair in table for t in pair)
                arr[...] = -1.0
            for arr, kept in zip(conditional_matrix(sigma, i), cached):
                np.testing.assert_array_equal(arr, kept[0, 0])
                assert kept.min() >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(joint_strategies())
    def test_conditionals_are_distributions(self, sigma):
        for i in range(sigma.num_players):
            p, conds = conditional_matrix(sigma, i)
            for j in np.flatnonzero(p > 0):
                assert conds[j].sum() == pytest.approx(1.0, abs=1e-9)
                assert conds[j].min() >= 0.0


class TestProduct:
    def test_outer_product_detected(self):
        sigma = JointMixedStrategy(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert is_product(sigma)

    def test_correlated_rejected(self):
        assert not is_product(sigma_corr())

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=3),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=3),
    )
    def test_every_outer_product_passes(self, left, right):
        a = np.array(left) / np.sum(left)
        b = np.array(right) / np.sum(right)
        assert is_product(JointMixedStrategy(np.outer(a, b)))


def one_state_skeleton(**fields) -> MarkovGameSkeleton:
    """A one-stage, one-state 2x2 skeleton with ``fields`` replaced."""
    base = dict(
        action_sets=(("a", "b"), ("a", "b")), states=("s",), horizon=1,
        transitions=np.ones((1, 1, 2, 2, 1)), initial_dist=np.array([1.0]),
    )
    return MarkovGameSkeleton(**dict(base, **fields))


class TestMarkovObjects:
    def test_skeleton_shape_validation(self):
        with pytest.raises(ShapeError):
            MarkovGameSkeleton(
                action_sets=(("a", "b"), ("a", "b")),
                states=("s",),
                horizon=1,
                transitions=np.ones((1, 1, 2, 2, 2)),
                initial_dist=np.array([1.0]),
            )

    def test_transition_rows_validated(self):
        trans = np.zeros((1, 1, 2, 2, 1))
        trans[0, 0, :, :, 0] = 0.9
        with pytest.raises(DistributionError):
            MarkovGameSkeleton(
                action_sets=(("a", "b"), ("a", "b")),
                states=("s",),
                horizon=1,
                transitions=trans,
                initial_dist=np.array([1.0]),
            )
        # The message names the first bad row, whatever is wrong with it.
        for row, bad in ((1, [1.0 + 1e-6, 0.0]), (5, [1.5, -0.5]),
                         (7, [np.nan, 1.0])):
            trans = np.full((1, 2, 2, 2, 2), 0.5)
            trans.reshape(8, 2)[row] = bad
            with pytest.raises(DistributionError, match=f"row {row}:"):
                MarkovGameSkeleton(
                    action_sets=(("a", "b"), ("a", "b")),
                    states=("s0", "s1"),
                    horizon=1,
                    transitions=trans,
                    initial_dist=np.array([0.5, 0.5]),
                )

    def test_policy_rows_validated(self):
        # The message names the first bad (h, s), whatever is wrong with it.
        for row, bad, what in ((2, [np.nan, 0.5, 0.25, 0.25], "non-finite"),
                               (3, [0.75, 0.5, -0.25, 0.0], "negative"),
                               (4, [0.25, 0.25, 0.25, 0.26], "sums to")):
            stages = np.full((2, 3, 2, 2), 0.25)
            stages.reshape(6, 4)[row] = bad
            stages.reshape(6, 4)[5] = [2.0, 0.0, 0.0, 0.0]
            h, s = divmod(row, 3)
            with pytest.raises(
                DistributionError, match=rf"stage \(h={h}, s={s}\): {what}"
            ):
                MarkovPolicy(stages=stages)

    def test_first_correlated_stage(self):
        stages = np.full((2, 3, 2, 2), 0.25)
        assert MarkovPolicy(stages=stages).first_correlated() is None
        stages[1, 1] = sigma_corr().probs
        stages[1, 2] = sigma_corr().probs
        policy = MarkovPolicy(stages=stages)
        assert policy.first_correlated() == (1, 1)

    def test_stage_objects_built_once(self):
        policy = MarkovPolicy(stages=np.full((2, 3, 2, 2), 0.25))
        assert policy.stage(1, 2) is policy.stage(1, 2)
        np.testing.assert_array_equal(policy.stage(1, 2).probs, policy.stages[1, 2])

    @pytest.mark.parametrize("build, message", [
        (lambda: JointMixedStrategy(np.array(1.0)),
         "joint strategy needs at least one player axis"),
        (lambda: NormalFormGame(action_sets=(("a",), ()), utility=np.zeros((2, 1, 0))),
         "every player needs a nonempty action set"),
        (lambda: NormalFormGame(action_sets=(("a", "b"),), utility=np.zeros((1, 3))),
         r"utility shape \(1, 3\), expected \(1, 2\)"),
        (lambda: one_state_skeleton(states=()), "at least one state required"),
        (lambda: one_state_skeleton(horizon=0), "horizon 0 must be >= 1"),
        (lambda: one_state_skeleton(initial_dist=np.array([0.5, 0.5])),
         r"initial_dist shape \(2,\), expected \(1,\)"),
        (lambda: MarkovPolicy(stages=np.ones((1, 1))),
         r"policy needs axes \(stage, state, actions...\)"),
        (lambda: RewardFunction(rewards=np.zeros((1, 1, 2)), bound=1.0),
         r"rewards need axes \(player, stage, state, actions...\)"),
        (lambda: RewardFunction(rewards=np.full((1, 1, 1, 2), np.nan), bound=1.0),
         "rewards have non-finite entries"),
        (lambda: RewardFunction(rewards=np.zeros((1, 1, 1, 2)), bound=-1.0),
         "bound -1.0 must be finite and >= 0"),
        (lambda: RewardFunction(rewards=np.zeros((1, 1, 1, 2)), bound=math.inf),
         "bound inf must be finite and >= 0"),
    ])
    def test_constructor_shape_errors(self, build, message):
        with pytest.raises(ShapeError, match=message):
            build()

    def test_reward_bound_exact(self):
        with pytest.raises(ShapeError):
            RewardFunction(
                rewards=np.full((1, 1, 1, 2, 2), 1.0 + 1e-9), bound=1.0
            )

    def test_nfg_embedding_round_trip(self):
        rng = np.random.default_rng(3)
        utility = rng.normal(size=(2, 3, 2))
        game = NormalFormGame(
            action_sets=(("a", "b", "c"), ("x", "y")), utility=utility
        )
        skeleton = nfg_as_markov(game)
        assert skeleton.horizon == 1
        assert skeleton.num_states == 1
        assert skeleton.action_counts == (3, 2)
        np.testing.assert_array_equal(
            skeleton.baseline_reward.reshape(utility.shape), utility
        )

    def test_strategy_embedding(self):
        policy = strategy_as_policy(sigma_ex())
        assert policy.horizon == 1
        np.testing.assert_array_equal(policy.stage(0, 0).probs, sigma_ex().probs)

    def test_one_stage_policy_embeds_its_stage(self):
        # A stage's embedding carries the stage's bytes, signed zeros
        # included, and is a policy of its own.
        probs = np.array([[[[0.5, -0.0], [0.0, 0.5]]]])
        policy = MarkovPolicy(stages=probs)
        sigma = policy.stage(0, 0)
        assert sigma.probs.tobytes() == policy.stages[0, 0].tobytes()
        longer = MarkovPolicy(stages=np.repeat(probs, 2, axis=0))
        embedded = strategy_as_policy(longer.stage(0, 0))
        assert embedded is not longer
        assert embedded.stages.tobytes() == policy.stages.tobytes()


def warmed_objects() -> dict:
    """One object of each frozen class, with every cached table filled."""
    rng = make_rng("games-round-trip")
    sigma = random_sigma(rng, (3, 2))
    game = NormalFormGame((("a", "b", "c"), ("x", "y")), rng.normal(size=(2, 3, 2)))
    skeleton = random_skeleton(rng)
    skeleton = dataclasses.replace(
        skeleton, baseline_reward=random_reward(rng, skeleton).rewards
    )
    policy = random_policy(rng, skeleton)
    reward = random_reward(rng, skeleton)
    strategy_as_policy(sigma).conditional_table, nfg_as_markov(game)
    policy.conditional_table, policy.first_correlated(), policy.stage(0, 0)
    skeleton.action_counts
    return {type(obj).__name__: obj for obj in (sigma, game, skeleton, policy, reward)}


ROUND_TRIPS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "deepcopy": copy.deepcopy,
}


FROZEN_CLASSES = [
    "JointMixedStrategy", "NormalFormGame", "MarkovGameSkeleton",
    "MarkovPolicy", "RewardFunction",
]


@pytest.mark.parametrize("name", FROZEN_CLASSES)
def test_constructor_keeps_one_read_only_copy(name):
    # Every array field is the constructor's own copy, frozen; the
    # caller's array is neither shared nor frozen.
    obj = warmed_objects()[name]
    given = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    given = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in given.items()}
    built = type(obj)(**given)
    arrays = [k for k, v in given.items() if isinstance(v, np.ndarray)]
    assert arrays
    for field in arrays:
        kept = getattr(built, field)
        assert not kept.flags.writeable and given[field].flags.writeable
        assert not np.shares_memory(kept, given[field])


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", FROZEN_CLASSES)
def test_round_trip_rebuilds_through_the_constructor(name, trip):
    # A copy's arrays must stay read-only, so that no cached table can
    # disagree with them, and no cached table may ride along.
    obj = warmed_objects()[name]
    twin = ROUND_TRIPS[trip](obj)
    assert type(twin) is type(obj)
    names = [f.name for f in dataclasses.fields(obj)]
    assert sorted(vars(twin)) == sorted(names)
    for field in names:
        old, new = getattr(obj, field), getattr(twin, field)
        if not isinstance(old, np.ndarray):
            assert new == old
            continue
        assert new.shape == old.shape and new.tobytes() == old.tobytes()
        assert not new.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            new[(0,) * new.ndim] = -0.2


def test_random_sigma_helper_is_deterministic():
    a = random_sigma(np.random.default_rng(7), (2, 2))
    b = random_sigma(np.random.default_rng(7), (2, 2))
    np.testing.assert_array_equal(a.probs, b.probs)
