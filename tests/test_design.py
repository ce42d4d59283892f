"""Reward-designer tests: builder layout, feasibility geometry, costs.

Feasible designs are accepted only after the independent verifier measures
their margins; expected objective values come with a short optimality
argument rather than from the solver.
"""

import dataclasses
import hashlib
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
    LinearProgram,
    LpStatus,
    MarkovGameSkeleton,
    MarkovPolicy,
    NormalFormGame,
    NotProductError,
    RewardFunction,
    ShapeError,
    build_mg_lp,
    build_nfg_lp,
    check,
    design,
    evaluate_cost,
    gamma_cce,
    nfg_as_markov,
    solve,
    strategy_as_policy,
    witness_utility,
)

from test_one_stage import concepts_for as one_shot_concepts
from test_one_stage import margin_cap, one_shot_case

from conftest import (
    build_lp,
    installable_policy,
    make_rng,
    random_lp_case,
    random_skeleton,
    sigma_corr,
    sigma_ex,
    zero_game,
)


def recipe_instance(num_s, horizon, counts):
    """The seeded ladder game of ROADMAP.md: dirichlet(0.9) transitions and
    initial distribution, a mixed installable target at every stage."""
    rng = make_rng(f"b{num_s}{horizon}{counts}")
    num_a = int(np.prod(counts))
    sk = MarkovGameSkeleton(
        action_sets=tuple(tuple(f"a{k}" for k in range(c)) for c in counts),
        states=tuple(f"s{k}" for k in range(num_s)),
        horizon=horizon,
        transitions=rng.dirichlet(
            np.full(num_s, 0.9), size=(horizon, num_s, num_a)
        ).reshape((horizon, num_s) + counts + (num_s,)),
        initial_dist=rng.dirichlet(np.full(num_s, 0.9)),
    )
    return sk, installable_policy(rng, sk, allow_pure=False)


def recipe_slack(pol, bound):
    """Nine tenths of the margin the Markov witness certifies at ``bound``."""
    cap = min(
        gamma_cce(pol.stage(h, s)).value
        for h in range(pol.horizon)
        for s in range(pol.num_states)
    )
    return min(0.4, 0.9 * 0.5 * bound * cap)


def highs(lp):
    """Status and objective of a design program (only >= rows) by scipy's
    HiGHS; skips the test without scipy.  HiGHS reports some unbounded
    programs as infeasible (status 2), so a status 2 whose rows a zero
    objective can meet is unbounded."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    assert (lp.relations == ">=").all()

    def run(objective):
        return linprog(
            objective,
            A_ub=-lp.rows,
            b_ub=-lp.rhs,
            bounds=list(zip(lp.lower, lp.upper)),
            method="highs",
        )

    res = run(lp.objective)
    if res.status == 2 and run(np.zeros(lp.num_vars)).status == 0:
        return LpStatus.UNBOUNDED, None
    status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    return status[res.status], res.fun if res.status == 0 else None


def full_support_policy(shape=(2, 2), horizon=2, num_states=2):
    rng = make_rng(f"design-full-{shape}-{horizon}-{num_states}")
    num_a = int(np.prod(shape))
    stages = rng.dirichlet(
        np.full(num_a, 2.0), size=(horizon, num_states)
    ).reshape((horizon, num_states) + shape)
    return MarkovPolicy(stages=stages)


def chain_skeleton(horizon=2, num_states=2, shape=(2, 2)):
    rng = make_rng(f"design-chain-{horizon}-{num_states}-{shape}")
    trans = rng.dirichlet(
        np.full(num_states, 1.0),
        size=(horizon, num_states) + shape,
    )
    init = rng.dirichlet(np.full(num_states, 1.0))
    sets = tuple(tuple(f"a{k}" for k in range(c)) for c in shape)
    return MarkovGameSkeleton(
        action_sets=sets,
        states=tuple(f"s{k}" for k in range(num_states)),
        horizon=horizon,
        transitions=trans,
        initial_dist=init,
    )


class TestBuilderLayout:
    def test_mg_variable_and_row_counts(self):
        sk = chain_skeleton()
        pol = full_support_policy()
        # Columns are the rewards (as d+ and d- for the L1 costs) plus the
        # cost's own; rows are the 16 strictness rows plus the cost's own.
        blk = 2 * 2 * 2 * 4
        cases = {
            CostKind.OFFLINE: (2 * blk, 16),
            CostKind.ONLINE: (2 * blk, 16),
            CostKind.SOCIAL_WELFARE: (blk, 16),
            CostKind.EGALITARIAN: (blk + 1, 18),
        }
        for kind, (num_vars, num_rows) in cases.items():
            lp, _ = build_mg_lp(
                sk, pol, Concept.CCE, CostSpec(kind),
                DesignConfig(slack=0.1, bound=1.0),
            )
            assert lp.num_vars == num_vars, kind
            assert len(lp.rows) == num_rows, kind
        lp, layout = build_mg_lp(
            sk, pol, Concept.CCE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.0, bound=1.0, max_gap=True),
        )
        assert lp.num_vars == blk + 1
        assert len(lp.constraints) == 16
        assert layout["slack_col"] == blk

    def test_mg_bounds_box_rewards_only(self):
        sk = chain_skeleton()
        pol = full_support_policy()
        lp, layout = build_mg_lp(
            sk, pol, Concept.CCE, CostSpec(CostKind.SOCIAL_WELFARE),
            DesignConfig(slack=0.1, bound=1.5),
        )
        blk = 2 * 2 * 2 * 4
        assert np.all(lp.lower[:blk] == -1.5)
        assert np.all(lp.upper[:blk] == 1.5)
        assert np.all(np.isinf(lp.lower[blk:]))
        assert np.all(np.isinf(lp.upper[blk:]))

    def test_nfg_counts(self):
        sigma = JointMixedStrategy(np.full((2, 2), 0.25))
        lp, _ = build_nfg_lp(
            sigma, Concept.CCE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.1, bound=1.0),
        )
        assert lp.num_vars == 16 and len(lp.constraints) == 4
        lp, _ = build_nfg_lp(
            sigma, Concept.CCE, CostSpec(CostKind.SOCIAL_WELFARE),
            DesignConfig(slack=0.1, bound=1.0),
        )
        assert lp.num_vars == 8 and len(lp.constraints) == 4
        lp, layout = build_nfg_lp(
            sigma, Concept.CCE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.0, bound=1.0, max_gap=True),
        )
        assert lp.num_vars == 9 and len(lp.constraints) == 4
        assert layout["slack_col"] == 8

    def test_l1_programs_have_only_strictness_rows(self):
        sk, pol = recipe_instance(3, 3, (3, 3))
        cost = CostSpec(CostKind.OFFLINE)
        config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
        lp, layout = build_mg_lp(sk, pol, Concept.CCE, cost, config)
        assert (lp.num_vars, len(lp.constraints)) == (324, 54)
        assert np.array_equal(layout["baseline"], np.zeros(162))
        result = design(sk, pol, Concept.CCE, cost, config)
        assert result.objective == pytest.approx(6.338652, abs=1e-6)

    def test_dual_phase_keeps_design_steps_low(self):
        # Every strictness row is violated at the start, where the costs
        # already prefer the deviation columns' lower bounds: the dual phase
        # repairs the rows and the primal phase has nothing left to do.
        sk, pol = recipe_instance(3, 3, (3, 3))
        config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
        cost = CostSpec(CostKind.OFFLINE)
        result = design(sk, pol, Concept.CCE, cost, config)
        assert result.iterations <= 105
        assert result.phase_steps == (result.iterations, 0)

    def test_nash_needs_product_target(self):
        with pytest.raises(NotProductError):
            build_nfg_lp(
                sigma_corr(), Concept.NE, CostSpec(CostKind.OFFLINE),
                DesignConfig(slack=0.1, bound=1.0),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DesignConfig(slack=0.1, bound=0.0)
        with pytest.raises(ValueError):
            DesignConfig(slack=-0.1, bound=1.0)
        with pytest.raises(ValueError):
            DesignConfig(slack=np.inf, bound=1.0)
        DesignConfig(slack=np.inf, bound=1.0, max_gap=True)

    def test_baseline_must_be_finite(self):
        # The game carries the baseline, so its constructor rejects a
        # non-finite one before any design or cost reads it.
        sk = chain_skeleton()
        for bad in (np.nan, np.inf):
            base = np.zeros((2, 2, 2, 2, 2))
            base[1, 0, 1, 1, 0] = bad
            with pytest.raises(ShapeError, match="non-finite"):
                dataclasses.replace(sk, baseline_reward=base)

    def test_nash_design_names_correlated_stage(self):
        stages = np.full((2, 2, 2, 2), 0.25)
        stages[1, 0] = sigma_corr().probs
        with pytest.raises(NotProductError, match=r"\(h=1, s=0\)"):
            design(
                chain_skeleton(), MarkovPolicy(stages=stages), Concept.NE,
                CostSpec(CostKind.OFFLINE),
                DesignConfig(slack=0.1, bound=1.0),
            )

    def test_baseline_shape_checked(self):
        with pytest.raises(ShapeError, match="baseline_reward shape"):
            dataclasses.replace(chain_skeleton(), baseline_reward=np.zeros((2, 2)))


class TestNfgDesign:
    def corr_game(self):
        return zero_game((2, 2))

    def test_ce_offline_minimal_cost(self):
        # Each CE row touches a disjoint cell pair and forces a spread of
        # 0.5, so the L1 cost is at least 1 per player; the half witness
        # attains 2 in total.
        result = design(
            self.corr_game(), sigma_corr(), Concept.CE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.5, bound=1.0),
        )
        assert result.status == LpStatus.OPTIMAL
        assert result.objective == pytest.approx(2.0, abs=1e-9)
        assert result.report.min_gap >= 0.5 - 1e-6
        assert result.objective == pytest.approx(
            float(np.abs(result.utility).sum()), abs=1e-9
        )

    def test_utility_is_a_read_only_view_of_the_reward(self):
        result = design(
            self.corr_game(), sigma_corr(), Concept.CE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.5, bound=1.0),
        )
        assert np.shares_memory(result.utility, result.reward.rewards)
        with pytest.raises(ValueError):
            result.utility[0, 0, 0] = 0.9

    def test_online_cost_can_vanish_off_path(self):
        result = design(
            self.corr_game(), sigma_corr(), Concept.CCE,
            CostSpec(CostKind.ONLINE),
            DesignConfig(slack=0.5, bound=1.0),
        )
        assert result.status == LpStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0, abs=1e-9)
        assert result.report.min_gap >= 0.5 - 1e-6

    def test_uninstallable_target_infeasible_at_any_bound(self):
        uniform = JointMixedStrategy(np.full((2, 2), 0.25))
        result = design(
            self.corr_game(), uniform, Concept.CCE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=1e-6, bound=1e3),
        )
        assert result.status == LpStatus.INFEASIBLE
        assert result.reward is None and result.utility is None

    def test_max_gap_zero_for_uninstallable(self):
        uniform = JointMixedStrategy(np.full((2, 2), 0.25))
        result = design(
            self.corr_game(), uniform, Concept.CCE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.0, bound=1.0, max_gap=True),
        )
        assert result.status == LpStatus.OPTIMAL
        assert result.achieved_slack == pytest.approx(0.0, abs=1e-9)

    def test_max_gap_ignores_cost_choice(self):
        # The diagonal target caps the best margin at 1 with unit bound:
        # the on-path value is at most 1 and the two deviation values
        # average the whole tensor, which the box keeps above -1.
        results = [
            design(
                self.corr_game(), sigma_corr(), Concept.CCE,
                CostSpec(kind),
                DesignConfig(slack=0.0, bound=1.0, max_gap=True),
            )
            for kind in (CostKind.OFFLINE, CostKind.SOCIAL_WELFARE)
        ]
        for result in results:
            assert result.status == LpStatus.OPTIMAL
            assert result.achieved_slack == pytest.approx(1.0, abs=1e-9)
            assert result.report.min_gap >= 1.0 - 1e-6

    def test_nash_pure_target_max_gap_is_twice_bound(self):
        pure = JointMixedStrategy(np.array([[1.0, 0.0], [0.0, 0.0]]))
        result = design(
            self.corr_game(), pure, Concept.NE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.0, bound=1.0, max_gap=True),
        )
        assert result.status == LpStatus.OPTIMAL
        assert result.achieved_slack == pytest.approx(2.0, abs=1e-9)

    def test_nash_mixed_product_infeasible(self):
        mixed = JointMixedStrategy(
            np.outer([0.5, 0.5], [0.3, 0.7])
        )
        result = design(
            self.corr_game(), mixed, Concept.NE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.01, bound=10.0),
        )
        assert result.status == LpStatus.INFEASIBLE

    def test_feasible_baseline_costs_nothing(self):
        base = witness_utility(sigma_corr())
        result = design(
            NormalFormGame(self.corr_game().action_sets, base), sigma_corr(),
            Concept.CE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.5, bound=1.0),
        )
        assert result.status == LpStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(result.utility, base, atol=1e-9)

    def test_deterministic_resolve(self):
        runs = [
            design(
                self.corr_game(), sigma_corr(), Concept.CE,
                CostSpec(CostKind.OFFLINE),
                DesignConfig(slack=0.5, bound=1.0),
            )
            for _ in range(2)
        ]
        assert runs[0].utility.tobytes() == runs[1].utility.tobytes()
        assert runs[0].iterations == runs[1].iterations

    def test_target_game_mismatch(self):
        with pytest.raises(ShapeError):
            design(
                self.corr_game(), full_support_policy(), Concept.CCE,
                CostSpec(CostKind.OFFLINE),
                DesignConfig(slack=0.1, bound=1.0),
            )
        with pytest.raises(ShapeError):
            design(
                zero_game((3, 2)), sigma_corr(), Concept.CCE,
                CostSpec(CostKind.OFFLINE),
                DesignConfig(slack=0.1, bound=1.0),
            )
        with pytest.raises(ShapeError):
            design(
                chain_skeleton(), sigma_corr(), Concept.CCE,
                CostSpec(CostKind.OFFLINE),
                DesignConfig(slack=0.1, bound=1.0),
            )


class TestOneStageEmbedding:
    def test_nfg_design_is_its_one_stage_markov_design(self):
        rng = make_rng("design-embedding")
        targets = [
            sigma_corr(),
            sigma_ex(),
            JointMixedStrategy(np.full((2, 2), 0.25)),
        ]
        for sigma in targets:
            shape = (2,) + sigma.action_counts
            sets = tuple(tuple(f"a{k}" for k in range(c)) for c in shape[1:])
            game = NormalFormGame(sets, rng.uniform(-1.0, 1.0, shape))
            override = rng.uniform(-1.0, 1.0, shape)
            skeleton, policy = nfg_as_markov(game), strategy_as_policy(sigma)
            for concept in (Concept.CE, Concept.CCE):
                for kind, max_gap, base in [
                    (k, False, None) for k in CostKind
                ] + [
                    (CostKind.OFFLINE, False, override),
                    (CostKind.OFFLINE, True, None),
                ]:
                    config = DesignConfig(slack=0.05, bound=1.0, max_gap=max_gap)
                    one_game, two_game = game, skeleton
                    if base is not None:
                        one_game = NormalFormGame(game.action_sets, base)
                        two_game = dataclasses.replace(
                            skeleton,
                            baseline_reward=base.reshape((2, 1, 1) + shape[1:]),
                        )
                    one = design(one_game, sigma, concept, CostSpec(kind), config)
                    two = design(two_game, policy, concept, CostSpec(kind), config)
                    case = (sigma.probs.tolist(), concept, kind, max_gap)
                    assert one.status == two.status, case
                    assert one.objective == two.objective, case
                    if one.reward is None:
                        assert two.reward is None, case
                        continue
                    assert np.array_equal(
                        one.reward.rewards, two.reward.rewards
                    ), case
                    assert np.array_equal(
                        one.utility.reshape(one.reward.rewards.shape),
                        one.reward.rewards,
                    ), case


class TestPinnedOptima:
    """Optima of the criterion-5 recipe, recorded from the earlier program
    that carried action and state values as variables.  Soundness checks
    alone would pass a program that lost its optimum."""

    # k -> objectives for online, offline, social, egalitarian, max-gap.
    EXPECTED = {
        0: (
            0.03890014244180068, 1.0737917259675154, -11.94470742684814,
            -5.971291503935567, -0.12447457285017244,
        ),
        1: (
            0.007654673620667726, 0.2523080756973122, -11.984269165249984,
            -5.990801899209318, -0.05094755883979736,
        ),
        2: (
            0.013836034830832632, 0.368820450163891, -11.979447717388005,
            -5.9890196341340065, -0.06428648597101608,
        ),
        3: (
            0.045414651248632136, 1.0975385885658127, -7.939603620640729,
            -3.9648064055759344, -0.22361915706567767,
        ),
    }

    def test_criterion_5_optima_survive(self):
        bound = 2.0
        for k, expected in self.EXPECTED.items():
            rng = make_rng(f"acc5-{k}")
            sk = random_skeleton(
                rng, max_states=3, max_horizon=3, max_actions=2
            )
            pol = installable_policy(rng, sk, allow_pure=False)
            cap = min(
                gamma_cce(pol.stage(h, s)).value
                for h in range(sk.horizon)
                for s in range(sk.num_states)
            )
            slack = min(0.4, 0.45 * bound * cap)
            configs = [
                (CostSpec(kind), DesignConfig(slack=slack, bound=bound))
                for kind in CostKind
            ] + [
                (
                    CostSpec(CostKind.OFFLINE),
                    DesignConfig(slack=0.0, bound=bound, max_gap=True),
                )
            ]
            for (cost, config), value in zip(configs, expected):
                result = design(sk, pol, Concept.CCE, cost, config)
                assert result.status == LpStatus.OPTIMAL, (k, cost.kind)
                assert result.objective == pytest.approx(value, abs=1e-6), (
                    k, cost.kind, config.max_gap,
                )


class TestPinnedPrograms:
    """SHA-256 of the ``--lp-dump`` text of two ladder programs; a change
    to any coefficient, bound or row order shows here.  Re-recorded when
    ``dump`` went from 6 to 17 significant digits, on the programs that
    :class:`TestPinnedProgramBytes` pins, so these digests now see every
    bit and can move with the numpy or BLAS build.  Re-recorded again when
    the rows and the social weights came from forward occupancy."""

    DIGESTS = {
        (Concept.CCE, CostKind.OFFLINE): (
            "36887bbfbb40d9c9acc3cf2c8d1827947e39dd77ce36a8cdf3c13e3ea68df572"
        ),
        (Concept.CE, CostKind.ONLINE): (
            "2797f1cd2736581c12a10932c8434b0f719e7a7e0568f339a989e1e3c90bcc0e"
        ),
    }

    def test_3_3_3x3_dumps_are_pinned(self):
        sk, pol = recipe_instance(3, 3, (3, 3))
        config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
        for (concept, kind), digest in self.DIGESTS.items():
            lp, _ = build_mg_lp(sk, pol, concept, CostSpec(kind), config)
            text = lp.dump().encode()
            assert hashlib.sha256(text).hexdigest() == digest, (concept, kind)


def test_dump_shows_a_relative_change_of_1e_7():
    # One coefficient, then one lower bound (-2), of a 3,3,(3,3) program
    # moved far below their sixth significant digit.
    sk, pol = recipe_instance(3, 3, (3, 3))
    config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
    cost = CostSpec(CostKind.SOCIAL_WELFARE)
    lp, _ = build_mg_lp(sk, pol, Concept.CCE, cost, config)
    rows, lower = lp.rows.copy(), lp.lower.copy()
    rows[0, np.flatnonzero(rows[0])[0]] *= 1.0 + 1e-7
    moved = LinearProgram(lp.objective, rows, lp.relations, lp.rhs, lower, lp.upper)
    assert moved.dump() != lp.dump()
    lower[0] *= 1.0 + 1e-7
    assert lower[0] != -2.0
    lowered = LinearProgram(lp.objective, rows, lp.relations, lp.rhs, lower, lp.upper)
    assert lowered.dump() != moved.dump()


def pure_policy(horizon, num_s):
    """A pure profile at every (h, s) of a two-player 3x3 game."""
    stages = np.zeros((horizon, num_s, 3, 3))
    for h, s in np.ndindex(horizon, num_s):
        stages[h, s, (h + s) % 3, (h * s + 1) % 3] = 1.0
    return MarkovPolicy(stages=stages)


class TestPinnedProgramBytes:
    """SHA-256 of the raw float64 bytes of three programs: the stacked row
    coefficients, rhs, column bounds and objective, then the relations.
    These digests see every bit, and so can move with the numpy or BLAS
    build.  The CCE and CE digests were re-recorded when the value operator
    became the verifier's backward induction on the unit rewards, which
    moved entries by at most 8.3e-17, and all three when the rows came from
    forward occupancy, which moved entries by at most 1.3e-16."""

    DIGESTS = {
        (Concept.CCE, CostKind.OFFLINE): (
            "750cd263d24a38d06d4c417065cee0072be251a9e90d7ded3e7056b4b8498e3c"
        ),
        (Concept.CE, CostKind.ONLINE): (
            "e2aa0c73e00dd1108cf0ee4c2f49d8531f552b370f337ad4445334402ebb1275"
        ),
        (Concept.NE, CostKind.OFFLINE): (
            "6fb1769f1007eedd9505b55d4304d40a553411d83cdef22ce8a864a17d9ffebf"
        ),
    }

    @staticmethod
    def digest(lp):
        sha = hashlib.sha256()
        rows = np.array([c.coeffs for c in lp.constraints])
        rhs = np.array([c.rhs for c in lp.constraints])
        for arr in (rows, rhs, lp.lower, lp.upper, lp.objective):
            sha.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        sha.update("".join(c.relation for c in lp.constraints).encode())
        return sha.hexdigest()

    def test_3_3_3x3_programs_are_pinned_bitwise(self):
        sk, pol = recipe_instance(3, 3, (3, 3))
        config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
        for (concept, kind), digest in self.DIGESTS.items():
            target, cfg = pol, config
            if concept == Concept.NE:
                target = pure_policy(sk.horizon, sk.num_states)
                cfg = DesignConfig(slack=0.5, bound=2.0)
            lp, _ = build_mg_lp(sk, target, concept, CostSpec(kind), cfg)
            assert self.digest(lp) == digest, (concept, kind)


class TestPinnedSolves:
    """SHA-256 of each solve's status, phase steps, objective and ``x``
    bytes, recorded before the pivot loops were rewritten for fewer numpy
    calls: every pivot, tie-break and rounding must stay as it was.  Being
    bit-exact, they can also move with the numpy or BLAS build.  The design
    digests were re-recorded with :class:`TestPinnedProgramBytes`'s, each
    time with every status and phase step count unchanged."""

    DESIGNS = {
        (Concept.CCE, CostKind.ONLINE, False): (
            "eefb6d756cbd3956953e8412b5791b1970c02e820347449e814d42b44200616e"
        ),
        (Concept.CCE, CostKind.OFFLINE, False): (
            "8aba0224fb8563a07216e1956a0fdc94b8418421106d6329a48e03de1e2f09ff"
        ),
        (Concept.CCE, CostKind.SOCIAL_WELFARE, False): (
            "caf13fe329778911f45ecc42360870b59b730d5a8718634c49629cd96404fc48"
        ),
        (Concept.CCE, CostKind.EGALITARIAN, False): (
            "7498781ce868778f5da96bfbe70f04e5d2f0fe79776ec9ba0a1aa9363259ee4c"
        ),
        (Concept.CCE, CostKind.OFFLINE, True): (
            "00c16a8e3a5c96527732645b82183ab954d0896c45ebba3b655088c9f39ae3d6"
        ),
        (Concept.CE, CostKind.ONLINE, False): (
            "36eec30b941f24ab9086bca8fd4240efb137c5018f528b0e3c3ebbb500be89c5"
        ),
    }
    OFFLINE_4_4_3X3 = (
        "81f338d43477fa016af18fef0ab0aec4b0409e1b3ca7fee3eb29a967d4f585a3"
    )
    # Seeded program count -> digest of their digests in order.
    RANDOM = {
        200: "70713270e67628c86a89ba49eeffdc618f29f0d73931e139d430394663924a33",
        10_000: "5c8dfb525b60f7182fb3e79e8a3c888489ab461976653da8e353d73241c3dc09",
    }

    @staticmethod
    def digest(sol):
        sha = hashlib.sha256(
            f"{sol.status.value} {sol.phase_steps} {sol.objective!r}".encode()
        )
        if sol.x is not None:
            sha.update(sol.x.tobytes())
        return sha.hexdigest()

    @staticmethod
    def random_program(k):
        """A ``random_lp_case`` program; every odd one lifts the upper bound
        of each negative-cost column, so some of them are unbounded."""
        coeffs, rels, rhs, cost, lo, hi = random_lp_case(
            make_rng(f"pinned-solve-{k}"), 2 + k % 4
        )
        if k % 2:
            hi = np.where(cost < 0.0, math.inf, hi)
        return build_lp(coeffs, rels, rhs, cost, lo, hi)

    def check_random(self, count):
        sha = hashlib.sha256()
        statuses = set()
        for k in range(count):
            sol = solve(self.random_program(k))
            statuses.add(sol.status)
            sha.update(self.digest(sol).encode())
        assert statuses == set(LpStatus)
        assert sha.hexdigest() == self.RANDOM[count]

    def test_3_3_3x3_and_4_4_3x3_designs_are_pinned_bitwise(self):
        sk, pol = recipe_instance(3, 3, (3, 3))
        slack = recipe_slack(pol, 2.0)
        for (concept, kind, max_gap), digest in self.DESIGNS.items():
            config = DesignConfig(slack=slack, bound=2.0, max_gap=max_gap)
            lp, _ = build_mg_lp(sk, pol, concept, CostSpec(kind), config)
            assert self.digest(solve(lp)) == digest, (concept, kind, max_gap)
        sk, pol = recipe_instance(4, 4, (3, 3))
        config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
        lp, _ = build_mg_lp(sk, pol, Concept.CCE, CostSpec(CostKind.OFFLINE), config)
        assert self.digest(solve(lp)) == self.OFFLINE_4_4_3X3

    def test_random_programs_are_pinned_bitwise(self):
        self.check_random(200)

    @pytest.mark.skipif(
        os.environ.get("EQDESIGN_SLOW") != "1",
        reason="about 5 s; set EQDESIGN_SLOW=1 to run",
    )
    def test_large_random_battery_is_pinned_bitwise(self):
        self.check_random(10_000)


class TestAgainstHighs:
    """The in-package simplex against scipy's HiGHS on the seeded ladder
    programs of ROADMAP.md, far larger than the vertex-enumeration battery."""

    def check(self, lp):
        sol = solve(lp)
        status, objective = highs(lp)
        assert sol.status == status
        if status == LpStatus.OPTIMAL:
            assert sol.objective == pytest.approx(objective, abs=1e-6)
        return sol

    def check_every_cost_and_max_gap(self, num_s, horizon, counts):
        sk, pol = recipe_instance(num_s, horizon, counts)
        slack = recipe_slack(pol, 2.0)
        for kind in CostKind:
            lp, _ = build_mg_lp(
                sk, pol, Concept.CCE, CostSpec(kind),
                DesignConfig(slack=slack, bound=2.0),
            )
            assert self.check(lp).status == LpStatus.OPTIMAL, kind
        lp, _ = build_mg_lp(
            sk, pol, Concept.CCE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.0, bound=2.0, max_gap=True),
        )
        assert self.check(lp).status == LpStatus.OPTIMAL

    def test_every_cost_and_max_gap_at_3_3_3x3(self):
        self.check_every_cost_and_max_gap(3, 3, (3, 3))

    @pytest.mark.skipif(
        os.environ.get("EQDESIGN_SLOW") != "1",
        reason="about 10 s; set EQDESIGN_SLOW=1 to run",
    )
    def test_every_cost_and_max_gap_at_8_6_4x4(self):
        self.check_every_cost_and_max_gap(8, 6, (4, 4))

    def test_unbounded_program_highs_calls_infeasible(self, monkeypatch):
        # From a fuzz of small random programs: raw HiGHS says status 2,
        # "infeasible", and the ray solve returns proves it unbounded.
        linprog = pytest.importorskip("scipy.optimize").linprog
        lp = LinearProgram(
            [-1.0, 2.0, -1.0, 2.0],
            [[-3.0, -3.0, -3.0, -3.0], [-1.0, 1.0, 1.0, -2.0]],
            ">=",
            [3.0, -2.0],
            lower=[0.0, -math.inf, 0.0, 0.0],
        )
        lp_module = importlib.import_module("eqdesign.lp")
        simplex, rays = lp_module._simplex, []

        def recording(*args):
            ray, count = simplex(*args)
            rays.append(ray)
            return ray, count

        monkeypatch.setattr(lp_module, "_simplex", recording)
        assert self.check(lp).status == LpStatus.UNBOUNDED
        d = rays[-1][: lp.num_vars]
        assert np.all(lp.rows @ d >= -1e-9)
        assert np.all(d[np.isfinite(lp.lower)] >= -1e-9)
        assert lp.objective @ d < 0.0
        raw = linprog(
            lp.objective, A_ub=-lp.rows, b_ub=-lp.rhs,
            bounds=list(zip(lp.lower, lp.upper)), method="highs",
        )
        assert raw.status == 2

    def test_offline_at_4_4_3x3(self):
        sk, pol = recipe_instance(4, 4, (3, 3))
        cost = CostSpec(CostKind.OFFLINE)
        config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
        lp, _ = build_mg_lp(sk, pol, Concept.CCE, cost, config)
        assert (lp.num_vars, len(lp.constraints)) == (576, 96)
        self.check(lp)
        result = design(sk, pol, Concept.CCE, cost, config)
        assert result.status == LpStatus.OPTIMAL
        assert result.objective == pytest.approx(1.034976, abs=1e-6)

    def test_l1_and_social_at_8_6_4x4(self):
        sk, pol = recipe_instance(8, 6, (4, 4))
        config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
        for kind in (CostKind.OFFLINE, CostKind.SOCIAL_WELFARE):
            lp, _ = build_mg_lp(sk, pol, Concept.CCE, CostSpec(kind), config)
            assert self.check(lp).status == LpStatus.OPTIMAL, kind

    def test_baseline_outside_the_box(self):
        # Every baseline entry lies at +-3B: d+ and d- must pull each reward
        # back into the box, and the cost counts the whole distance.
        bound = 2.0
        sk, pol = recipe_instance(2, 2, (3, 3))
        rng = make_rng("design-outside-box")
        shape = (2, sk.horizon, sk.num_states) + sk.action_counts
        base = 3.0 * bound * rng.choice([-1.0, 1.0], size=shape)
        sk = dataclasses.replace(sk, baseline_reward=base)
        config = DesignConfig(slack=recipe_slack(pol, bound), bound=bound)
        for kind in (CostKind.ONLINE, CostKind.OFFLINE):
            cost = CostSpec(kind)
            lp, _ = build_mg_lp(sk, pol, Concept.CCE, cost, config)
            sol = self.check(lp)
            assert sol.status == LpStatus.OPTIMAL, kind
            result = design(sk, pol, Concept.CCE, cost, config)
            assert np.max(np.abs(result.reward.rewards)) <= bound
            assert result.objective == pytest.approx(
                evaluate_cost(sk, pol, cost, result.reward), abs=1e-6
            ), kind


class TestPricedStart:
    """Egalitarian's dual phase runs on the social cost over the number of
    players, whose optimum is already egalitarian-optimal because each
    player's rows touch only that player's rewards."""

    def test_egalitarian_starts_from_the_social_optimum(self):
        egalitarian = CostSpec(CostKind.EGALITARIAN)
        for rung in ((3, 3, (2, 2)), (2, 2, (3, 3)), (3, 3, (3, 3)), (4, 4, (3, 3))):
            sk, pol = recipe_instance(*rung)
            config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
            for concept in (Concept.CCE, Concept.CE):
                social = design(
                    sk, pol, concept, CostSpec(CostKind.SOCIAL_WELFARE), config
                )
                egal = design(sk, pol, concept, egalitarian, config)
                assert egal.objective == pytest.approx(
                    evaluate_cost(sk, pol, egalitarian, social.reward), abs=1e-9
                ), (rung, concept)
                assert egal.phase_steps[0] == social.phase_steps[0], (rung, concept)
                assert egal.phase_steps[1] <= sk.num_players, (rung, concept)


def test_egalitarian_is_the_social_designs_worst_player():
    # Each strictness row covers one player's rewards, so the design that
    # maximizes the sum of initial values maximizes every player's at once,
    # and its worst player is the egalitarian optimum.
    cases = []
    for rung in (
        (2, 2, (2, 2)), (2, 3, (2, 2)), (3, 2, (2, 2)), (2, 2, (2, 3)),
        (3, 3, (2, 2)), (2, 2, (3, 3)), (3, 3, (3, 3)), (4, 4, (3, 3)),
    ):
        sk, pol = recipe_instance(*rung)
        config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
        cases += [(sk, pol, sk, pol, c, config) for c in (Concept.CE, Concept.CCE)]
    for k in range(32):  # the one-shot sample, at its slack rule
        _, game, sigma = one_shot_case(k)
        sk, pol = nfg_as_markov(game), strategy_as_policy(sigma)
        for concept in one_shot_concepts(sigma):
            installable = check(sigma, concept).installable
            slack = 0.5 * margin_cap(sigma, concept, 1.0) if installable else 1e-3
            config = DesignConfig(slack=slack, bound=1.0)
            cases.append((game, sigma, sk, pol, concept, config))
    egalitarian = CostSpec(CostKind.EGALITARIAN)
    optimal = 0
    for game, target, sk, pol, concept, config in cases:
        social = design(
            game, target, concept, CostSpec(CostKind.SOCIAL_WELFARE), config
        )
        egal = design(game, target, concept, egalitarian, config)
        assert egal.status == social.status
        if egal.status == LpStatus.OPTIMAL:
            worst = evaluate_cost(sk, pol, egalitarian, social.reward)
            assert abs(egal.objective - worst) <= 1e-12
            optimal += 1
    assert optimal > len(cases) // 2


class TestOptimalDualsAreChecked:
    """An egalitarian program's dual phase ends primal feasible on the
    priced costs, one step short of the true optimum; returned as optimal,
    that point would pass the primal check alone."""

    def test_skipped_primal_phase_raises(self, monkeypatch):
        sk, pol = recipe_instance(3, 3, (3, 3))
        config = DesignConfig(slack=recipe_slack(pol, 2.0), bound=2.0)
        lp, _ = build_mg_lp(
            sk, pol, Concept.CCE, CostSpec(CostKind.EGALITARIAN), config
        )
        assert solve(lp).phase_steps[1] > 0
        lp_module = importlib.import_module("eqdesign.lp")
        monkeypatch.setattr(lp_module, "_simplex", lambda *args: (None, (0, 0)))
        with pytest.raises(RuntimeError, match="dual check"):
            solve(lp)


class TestBoxedMarginColumn:
    """A box on the max-gap margin that never binds keeps the optimum.  On
    the 4,4,(3,3) CCE program the dual phase meets a leaving row whose
    candidate pivot, 2.7e-8, is rounding noise beside its 2.3e4 entry;
    entering it breaks the solve down."""

    def test_boxes_that_never_bind_keep_the_optimum(self):
        sk, pol = recipe_instance(4, 4, (3, 3))
        config = DesignConfig(slack=0.0, bound=2.0, max_gap=True)
        cost = CostSpec(CostKind.OFFLINE)
        lp, _ = build_mg_lp(sk, pol, Concept.CCE, cost, config)
        free = solve(lp)
        assert free.status == LpStatus.OPTIMAL
        for box in ((-16.0, 16.0), (-1e3, 1e3), (0.0, 16.0), (-8.0, 8.0)):
            lower, upper = lp.lower.copy(), lp.upper.copy()
            lower[-1], upper[-1] = box
            boxed = LinearProgram(
                lp.objective, lp.rows, lp.relations, lp.rhs, lower, upper
            )
            sol = solve(boxed)
            assert sol.status == LpStatus.OPTIMAL, box
            assert abs(sol.objective - free.objective) <= 1e-9, box


class TestMgDesign:
    def test_every_cost_is_sound_and_recomputable(self):
        for k in range(2):
            rng = make_rng(f"mg-design-{k}")
            sk = random_skeleton(rng, max_states=2, max_horizon=2)
            pol = installable_policy(rng, sk, allow_pure=False)
            # Half the witness margin is always reachable at this bound.
            cap = min(
                gamma_cce(pol.stage(h, s)).value
                for h in range(sk.horizon)
                for s in range(sk.num_states)
            )
            slack = min(0.4, 0.45 * 2.0 * cap)
            config = DesignConfig(slack=slack, bound=2.0)
            for kind in CostKind:
                cost = CostSpec(kind)
                result = design(sk, pol, Concept.CCE, cost, config)
                assert result.status == LpStatus.OPTIMAL, (k, kind)
                assert result.report.min_gap >= slack - 1e-6
                assert np.max(np.abs(result.reward.rewards)) <= 2.0
                recomputed = evaluate_cost(sk, pol, cost, result.reward)
                assert result.objective == pytest.approx(
                    recomputed, abs=1e-6
                ), (k, kind)

    def test_ce_design_on_stagewise_ce_target(self):
        rng = make_rng("mg-ce-design")
        sk = random_skeleton(rng, max_states=2, max_horizon=2)
        num_a = int(np.prod(sk.action_counts))
        stages = np.zeros((sk.horizon, sk.num_states) + sk.action_counts)
        for h in range(sk.horizon):
            for s in range(sk.num_states):
                while True:
                    probs = rng.dirichlet(np.full(num_a, 1.5))
                    stage = JointMixedStrategy(
                        probs.reshape(sk.action_counts)
                    )
                    if check(stage, Concept.CE).installable:
                        stages[h, s] = stage.probs
                        break
        pol = MarkovPolicy(stages=stages)
        result = design(
            sk, pol, Concept.CE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.1, bound=2.0),
        )
        assert result.status == LpStatus.OPTIMAL
        assert result.report.min_gap >= 0.1 - 1e-6

    def test_nash_design_needs_product_stages(self):
        sk = chain_skeleton()
        stages = np.broadcast_to(
            sigma_corr().probs, (2, 2, 2, 2)
        ).copy()
        with pytest.raises(NotProductError):
            design(
                sk, MarkovPolicy(stages=stages), Concept.NE,
                CostSpec(CostKind.OFFLINE),
                DesignConfig(slack=0.1, bound=1.0),
            )

    def test_nash_design_on_pure_stages(self):
        rng = make_rng("mg-ne-design")
        sk = random_skeleton(rng, max_states=2, max_horizon=3)
        stages = np.zeros((sk.horizon, sk.num_states) + sk.action_counts)
        for h in range(sk.horizon):
            for s in range(sk.num_states):
                cell = tuple(
                    int(rng.integers(c)) for c in sk.action_counts
                )
                stages[(h, s) + cell] = 1.0
        pol = MarkovPolicy(stages=stages)
        result = design(
            sk, pol, Concept.NE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.5, bound=1.0),
        )
        assert result.status == LpStatus.OPTIMAL
        assert result.report.min_gap >= 0.5 - 1e-6

    def test_one_action_per_player_builds_no_strictness_rows(self):
        # No player can deviate, so no strictness row survives: each cost
        # is met by the box alone, and the margin has nothing to bound it.
        sk = chain_skeleton(shape=(1, 1))
        pol = full_support_policy(shape=(1, 1))
        best = {
            CostKind.ONLINE: 0.0,
            CostKind.OFFLINE: 0.0,
            CostKind.SOCIAL_WELFARE: -4.0,
            CostKind.EGALITARIAN: -2.0,
        }
        config = DesignConfig(slack=0.1, bound=1.0)
        for concept in Concept:
            for kind, objective in best.items():
                cost = CostSpec(kind)
                lp, _ = build_mg_lp(sk, pol, concept, cost, config)
                egalitarian = kind == CostKind.EGALITARIAN
                assert lp.rows.shape[0] == (2 if egalitarian else 0)
                result = design(sk, pol, concept, cost, config)
                assert result.status == LpStatus.OPTIMAL, (concept, kind)
                assert result.objective == pytest.approx(objective)
                assert result.report.min_gap == math.inf
            result = design(
                sk, pol, concept, CostSpec(CostKind.OFFLINE),
                DesignConfig(slack=0.0, bound=1.0, max_gap=True),
            )
            assert result.status == LpStatus.UNBOUNDED


class TestStageCoupling:
    """Two stages, unit bound: transitions reward coordination at stage 0
    with a better continuation, so the joint program clears margins no
    stage could reach on its own."""

    def fixture(self):
        shape = (2, 2)
        horizon, num_states = 2, 2
        trans = np.zeros((horizon, num_states) + shape + (num_states,))
        for s in range(num_states):
            for a0 in range(2):
                for a1 in range(2):
                    good = a0 == a1
                    trans[0, s, a0, a1, 0 if good else 1] = 1.0
                    trans[1, s, a0, a1, 0] = 1.0
        sets = (("a0", "a1"), ("b0", "b1"))
        sk = MarkovGameSkeleton(
            action_sets=sets,
            states=("good", "bad"),
            horizon=horizon,
            transitions=trans,
            initial_dist=np.array([1.0, 0.0]),
        )
        stages = np.zeros((horizon, num_states) + shape)
        stages[0] = sigma_corr().probs
        stages[1, :, 0, 0] = 1.0
        return sk, MarkovPolicy(stages=stages)

    def test_joint_margin_beats_any_single_stage(self):
        # Unit bound caps the stage-0 payoff spread at 1 and the stage-1
        # continuation spread at 2 - s, so a common margin s obeys
        # s <= 1 + (2 - s) / 2, i.e. s <= 4/3, and 4/3 is attained.
        sk, pol = self.fixture()
        result = design(
            sk, pol, Concept.CCE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.0, bound=1.0, max_gap=True),
        )
        assert result.status == LpStatus.OPTIMAL
        assert result.achieved_slack == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert result.report.min_gap >= 4.0 / 3.0 - 1e-6

    def test_requested_margin_above_greedy_cap(self):
        # 1.2 exceeds the 1.0 a one-shot design of the stage-0 target can
        # reach (see test_max_gap_ignores_cost_choice), yet the coupled
        # program clears it.
        sk, pol = self.fixture()
        solo = design(
            zero_game((2, 2)), sigma_corr(), Concept.CCE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=1.2, bound=1.0),
        )
        assert solo.status == LpStatus.INFEASIBLE
        joint = design(
            sk, pol, Concept.CCE, CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=1.2, bound=1.0),
        )
        assert joint.status == LpStatus.OPTIMAL
        assert joint.report.min_gap >= 1.2 - 1e-6


class TestEvaluateCost:
    def fixture(self):
        sk = nfg_as_markov(zero_game((2, 2)))
        pol = strategy_as_policy(sigma_corr())
        rewards = np.zeros((2, 1, 1, 2, 2))
        rewards[:, 0, 0] = np.array([[1.0, -1.0], [0.0, 0.5]])
        return sk, pol, RewardFunction(rewards=rewards, bound=1.0)

    def test_hand_computed_costs(self):
        sk, pol, rw = self.fixture()
        expected = {
            CostKind.OFFLINE: 5.0,
            CostKind.ONLINE: 1.5,
            CostKind.SOCIAL_WELFARE: -1.5,
            CostKind.EGALITARIAN: -0.75,
        }
        for kind, value in expected.items():
            got = evaluate_cost(sk, pol, CostSpec(kind), rw)
            assert got == pytest.approx(value, abs=1e-12), kind

    def test_baseline_shifts_modification_cost(self):
        sk, pol, rw = self.fixture()
        sk = dataclasses.replace(sk, baseline_reward=rw.rewards)
        assert evaluate_cost(sk, pol, CostSpec(CostKind.OFFLINE), rw) == 0.0
