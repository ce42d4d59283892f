"""Acceptance battery: nine independent end-to-end criteria.

Each criterion prints one ``criterion N: PASS``/``FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Expected numbers
are either recomputed in place by an independent route or hand-derived
constants whose derivation sits next to the assertion.  The whole battery
stays under a minute.
"""

import itertools
import math
import time

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
    LinearProgram,
    LpStatus,
    RewardFunction,
    StageCheckError,
    best_response,
    build_nfg_lp,
    check,
    check_scce,
    check_strict,
    design,
    gamma_cce,
    gamma_ce,
    markov_witness,
    nfg_as_markov,
    nfg_oracle,
    policy_eval,
    solve,
    strategy_as_policy,
    witness_utility,
)
from eqdesign.games import MarkovGameSkeleton, MarkovPolicy

from conftest import (
    epsilon_utility,
    installable_policy,
    installable_stage,
    is_product,
    make_rng,
    random_lp_case,
    random_policy,
    random_reward,
    random_skeleton,
    build_lp,
    inequality_form,
    sigma_corr,
    vertex_optimum,
    zero_game,
)


class _criterion:
    def __init__(self, number: int):
        self.number = number

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {verdict}")
        return False


def _embed(utility: np.ndarray, sigma: JointMixedStrategy):
    """One-stage Markov embedding of a utility tensor at a target."""
    skeleton = nfg_as_markov(zero_game(sigma.action_counts))
    policy = strategy_as_policy(sigma)
    bound = max(float(np.max(np.abs(utility))), 1.0)
    reward = RewardFunction(
        rewards=np.asarray(utility, dtype=float).reshape(
            (sigma.num_players, 1, 1) + sigma.action_counts
        ),
        bound=bound,
    )
    return skeleton, reward, policy


def test_criterion_1_check_matches_lp_feasibility(strategy_grid):
    """Installability verdicts coincide with design-LP feasibility."""
    with _criterion(1):
        disagreements = []
        for tag, sigma in strategy_grid:
            for concept, gfun in (
                (Concept.CE, gamma_ce),
                (Concept.CCE, gamma_cce),
            ):
                verdict = check(sigma, concept).installable
                if verdict:
                    gamma = gfun(sigma).value
                    slack = gamma / 2.0 if math.isfinite(gamma) else 1.0
                    cfg = DesignConfig(slack=slack, bound=1.0)
                else:
                    cfg = DesignConfig(slack=1e-6, bound=1e3)
                # Social-welfare cost keeps the program free of auxiliary
                # variables, so its status is pure feasibility.
                lp, _ = build_nfg_lp(
                    sigma, concept, CostSpec(CostKind.SOCIAL_WELFARE), cfg
                )
                feasible = solve(lp).status == LpStatus.OPTIMAL
                if feasible != verdict:
                    disagreements.append((tag, concept.value))
        assert disagreements == []


def test_criterion_2_witness_gap_equals_gamma(strategy_grid):
    """The witness utility's measured margin is the gamma of its concept."""
    with _criterion(2):
        checked = 0
        for tag, sigma in strategy_grid:
            u = witness_utility(sigma)
            skeleton, reward, policy = _embed(u, sigma)
            for concept, gfun in (
                (Concept.CE, gamma_ce),
                (Concept.CCE, gamma_cce),
            ):
                gamma = gfun(sigma)
                if not gamma.installable:
                    continue
                report = check_strict(skeleton, reward, policy, concept)
                if math.isinf(gamma.value):
                    assert math.isinf(report.min_gap), tag
                else:
                    assert report.min_gap == pytest.approx(
                        gamma.value, abs=1e-9
                    ), (tag, concept)
                    assert report.strict, (tag, concept)
                checked += 1
        assert checked >= 200

        # Hand-derived anchors for the perfectly correlated 2x2 target:
        # conditionals are opposite unit vectors, so the correlated margin
        # is 1 - cos(90deg) = 1 and the coarse one halves it by the mass
        # weights (0.5 each).
        corr = sigma_corr()
        u = witness_utility(corr)
        skeleton, reward, policy = _embed(u, corr)
        ce = check_strict(skeleton, reward, policy, Concept.CE)
        cce = check_strict(skeleton, reward, policy, Concept.CCE)
        assert ce.min_gap == pytest.approx(1.0, abs=1e-12)
        assert cce.min_gap == pytest.approx(0.5, abs=1e-12)


def _epsilon_ready(rng, shape):
    """Full-support target usable by every epsilon construction."""
    while True:
        probs = rng.dirichlet(np.full(int(np.prod(shape)), 0.9)).reshape(
            shape
        )
        sigma = JointMixedStrategy(probs)
        if not (
            check(sigma, Concept.CE).installable
            and check_scce(sigma).installable
        ):
            continue
        if gamma_ce(sigma).value >= 1e-3 and gamma_cce(sigma).value >= 1e-3:
            return sigma


def test_criterion_3_epsilon_scaling():
    """Epsilon constructions hit the requested margin inside the bound."""
    with _criterion(3):
        shapes = [(2, 2), (3, 2), (2, 3), (3, 3)]
        for k in range(50):
            rng = make_rng(f"acc3-{k}")
            sigma = _epsilon_ready(rng, shapes[k % len(shapes)])
            bound = float(rng.uniform(0.5, 3.0))
            for concept, gfun, dev in (
                (Concept.CE, gamma_ce, DeviationClass.NEVER_RECOMMENDED),
                (Concept.CCE, gamma_cce, DeviationClass.UNRESTRICTED),
            ):
                gamma = gfun(sigma).value
                eps = float(rng.uniform(0.0, bound * gamma))
                u = epsilon_utility(
                    sigma, concept, EpsilonConfig(eps, bound, dev)
                )
                assert np.max(np.abs(u)) <= bound + 1e-12
                measured = nfg_oracle(u, sigma, concept).min_gap
                assert measured >= eps - 1e-9
                # The construction scales the unit witness by eps / gamma,
                # so the margin lands on eps exactly up to roundoff.
                assert measured == pytest.approx(eps, abs=1e-9 * max(1.0, bound))
                with pytest.raises(StageCheckError):
                    epsilon_utility(
                        sigma,
                        concept,
                        EpsilonConfig(bound * gamma * 1.01 + 1e-9, bound, dev),
                    )

            # Strict Nash: pure target, payout +/-bound, margin 2 * bound.
            profile = tuple(
                int(rng.integers(0, c)) for c in sigma.action_counts
            )
            pure = np.zeros(sigma.action_counts)
            pure[profile] = 1.0
            target = JointMixedStrategy(pure)
            eps = float(rng.uniform(0.0, 2.0 * bound * 0.999))
            u = epsilon_utility(
                target,
                Concept.NE,
                EpsilonConfig(eps, bound, DeviationClass.NEVER_TARGET),
            )
            report = nfg_oracle(u, target, Concept.NE)
            assert report.min_gap == 2.0 * bound
            assert np.max(np.abs(u)) == bound
            with pytest.raises(StageCheckError):
                epsilon_utility(
                    target,
                    Concept.NE,
                    EpsilonConfig(
                        2.0 * bound, bound, DeviationClass.NEVER_TARGET
                    ),
                )


def test_criterion_4_markov_witness_bounds():
    """Markov witness obeys its reward/value bounds and is stage-strict."""
    with _criterion(4):
        for k in range(50):
            rng = make_rng(f"acc4-{k}")
            skeleton = random_skeleton(rng)
            policy = installable_policy(rng, skeleton)
            bound = float(rng.uniform(0.5, 4.0))
            reward = markov_witness(policy, skeleton, bound)
            assert np.max(np.abs(reward.rewards)) <= bound
            values = policy_eval(skeleton, reward, policy).v
            # Algebraic bound is the stage bound bound / min(H, 2); the slop
            # covers re-derivation dust from the independent backward
            # induction.
            assert np.max(np.abs(values)) <= bound / min(skeleton.horizon, 2) + 1e-9
            report = check_strict(skeleton, reward, policy, Concept.CCE)
            assert report.min_gap > 0.0
            covered = {key[:3] for key in report.per_constraint}
            expected = {
                (i, h, s)
                for i in range(skeleton.num_players)
                for h in range(skeleton.horizon)
                for s in range(skeleton.num_states)
            }
            assert covered == expected


def _forward_visitation(skeleton, policy):
    horizon, num_s = skeleton.horizon, skeleton.num_states
    num_a = int(np.prod(skeleton.action_counts))
    mu = np.zeros((horizon, num_s, num_a))
    dist = skeleton.initial_dist.copy()
    trans = skeleton.transitions.reshape(horizon, num_s, num_a, num_s)
    stages = np.asarray(policy.stages).reshape(horizon, num_s, num_a)
    for h in range(horizon):
        mu[h] = dist[:, None] * stages[h]
        dist = np.einsum("sa,sat->t", mu[h], trans[h])
    return mu


def _backward_values(skeleton, reward, policy):
    horizon, num_s = skeleton.horizon, skeleton.num_states
    n = skeleton.num_players
    num_a = int(np.prod(skeleton.action_counts))
    trans = skeleton.transitions.reshape(horizon, num_s, num_a, num_s)
    rews = reward.rewards.reshape(n, horizon, num_s, num_a)
    stages = np.asarray(policy.stages).reshape(horizon, num_s, num_a)
    v = np.zeros((n, horizon + 1, num_s))
    for h in range(horizon - 1, -1, -1):
        for s in range(num_s):
            q = rews[:, h, s] + (trans[h, s] @ v[:, h + 1].T).T
            v[:, h, s] = q @ stages[h, s]
    return v


def _recompute_cost(kind, skeleton, policy, reward):
    diff = np.abs(reward.rewards)
    if kind == CostKind.OFFLINE:
        return float(diff.sum())
    if kind == CostKind.ONLINE:
        mu = _forward_visitation(skeleton, policy)
        flat = diff.reshape(
            skeleton.num_players, skeleton.horizon, skeleton.num_states, -1
        )
        return float((flat * mu[None]).sum())
    v = _backward_values(skeleton, reward, policy)
    per_player = v[:, 0, :] @ skeleton.initial_dist
    if kind == CostKind.SOCIAL_WELFARE:
        return float(-per_player.sum())
    return float(-per_player.min())


def test_criterion_5_mg_design_soundness():
    """Optimal Markov designs verify their margin and report true costs."""
    with _criterion(5):
        suite = [(3, 3, 2)] * 5 + [(2, 2, 3)] * 3
        bound = 2.0
        for k, (ms, mh, ma) in enumerate(suite):
            rng = make_rng(f"acc5-{k}")
            skeleton = random_skeleton(
                rng, max_states=ms, max_horizon=mh, max_actions=ma
            )
            policy = installable_policy(rng, skeleton, allow_pure=False)
            capacity = min(
                gamma_cce(policy.stage(h, s)).value
                for h in range(skeleton.horizon)
                for s in range(skeleton.num_states)
            )
            # The Markov witness guarantees feasibility up to a margin of
            # (bound / 2) * capacity; stay inside it.
            slack = min(0.4, 0.45 * bound * capacity)
            for kind in CostKind:
                result = design(
                    skeleton,
                    policy,
                    Concept.CCE,
                    CostSpec(kind),
                    DesignConfig(slack=slack, bound=bound),
                )
                assert result.status == LpStatus.OPTIMAL, (k, kind)
                assert np.max(np.abs(result.reward.rewards)) <= bound
                report = check_strict(
                    skeleton, result.reward, policy, Concept.CCE
                )
                assert report.min_gap >= slack - 1e-6, (k, kind)
                recomputed = _recompute_cost(
                    kind, skeleton, policy, result.reward
                )
                assert result.objective == pytest.approx(
                    recomputed, abs=1e-6
                ), (k, kind)


def _coupling_fixture():
    """Two stages, two states: the diagonal stays in state 0, off-diagonal
    moves to state 1, and the second stage funnels back to state 0."""
    counts = (2, 2)
    num_a = 4
    trans = np.zeros((2, 2, num_a, 2))
    for a0 in range(2):
        for a1 in range(2):
            flat = a0 * 2 + a1
            trans[0, :, flat, 0 if a0 == a1 else 1] = 1.0
    trans[1, :, :, 0] = 1.0
    skeleton = MarkovGameSkeleton(
        action_sets=(("a0", "a1"), ("b0", "b1")),
        states=("s0", "s1"),
        horizon=2,
        transitions=trans.reshape((2, 2) + counts + (2,)),
        initial_dist=np.array([1.0, 0.0]),
    )
    stages = np.zeros((2, 2) + counts)
    stages[0, :] = sigma_corr().probs
    pure = np.zeros(counts)
    pure[0, 0] = 1.0
    stages[1, :] = pure
    return skeleton, MarkovPolicy(stages=stages)


def test_criterion_6_joint_stage_optimality():
    """Margins beyond any single stage's reach need the joint program."""
    with _criterion(6):
        skeleton, policy = _coupling_fixture()
        target = 1.2

        # Greedy per-stage design caps out at the one-shot maximum margin,
        # which for the correlated stage at bound 1 is exactly 1.0.
        solo = design(
            zero_game((2, 2)),
            sigma_corr(),
            Concept.CCE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.0, bound=1.0, max_gap=True),
        )
        assert solo.status == LpStatus.OPTIMAL
        assert solo.achieved_slack == pytest.approx(1.0, abs=1e-9)
        assert solo.achieved_slack < target

        greedy = design(
            zero_game((2, 2)),
            sigma_corr(),
            Concept.CCE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=target, bound=1.0),
        )
        assert greedy.status == LpStatus.INFEASIBLE

        joint = design(
            skeleton,
            policy,
            Concept.CCE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=target, bound=1.0),
        )
        assert joint.status == LpStatus.OPTIMAL
        assert joint.report.min_gap >= target - 1e-6

        # Joint maximum: stage-0 strictness s can borrow (2 - s) / 2 of
        # continuation spread, so s <= 1 + (2 - s) / 2, i.e. s <= 4/3.
        best = design(
            skeleton,
            policy,
            Concept.CCE,
            CostSpec(CostKind.OFFLINE),
            DesignConfig(slack=0.0, bound=1.0, max_gap=True),
        )
        assert best.status == LpStatus.OPTIMAL
        assert best.achieved_slack == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_criterion_7_lp_against_vertex_enumeration():
    """Simplex agrees with brute-force vertex enumeration on 500 programs."""
    with _criterion(7):
        sizes = [(2, 100), (3, 100), (4, 100), (5, 150), (6, 50)]
        total = 0
        for num_vars, cases in sizes:
            for k in range(cases):
                rng = make_rng(f"acc7-{num_vars}-{k}")
                coeffs, rels, rhs, cost, lo, hi = random_lp_case(
                    rng, num_vars
                )
                sol = solve(build_lp(coeffs, rels, rhs, cost, lo, hi))
                rows, limits = inequality_form(coeffs, rels, rhs, lo, hi)
                oracle = vertex_optimum(cost, rows, limits)
                if oracle is None:
                    assert sol.status == LpStatus.INFEASIBLE, (num_vars, k)
                else:
                    assert sol.status == LpStatus.OPTIMAL, (num_vars, k)
                    assert sol.objective == pytest.approx(
                        oracle, abs=1e-6
                    ), (num_vars, k)
                total += 1
        assert total == 500

        infeasible = LinearProgram([0.0], [[1.0]], "<=", -1.0, 0.0)
        assert solve(infeasible).status == LpStatus.INFEASIBLE

        unbounded = LinearProgram([-1.0], np.empty((0, 1)), [], [], 0.0)
        assert solve(unbounded).status == LpStatus.UNBOUNDED


def _deviation_values(skeleton, reward, policy, player, deltas):
    batch = deltas.shape[0]
    horizon, num_s = skeleton.horizon, skeleton.num_states
    count = skeleton.action_counts[player]
    v = np.zeros((batch, horizon + 1, num_s))
    for h in range(horizon - 1, -1, -1):
        for s in range(num_s):
            cont = skeleton.transitions[h, s] @ v[:, h + 1].T
            payoff = reward.rewards[player, h, s][..., None] + cont
            mat = np.moveaxis(payoff, player, 0).reshape(count, -1, batch)
            marg = policy.stage(h, s).opponent_marginal(player).reshape(-1)
            rows = np.einsum("mrb,r->mb", mat, marg)
            v[:, h, s] = np.einsum("mb,bm->b", rows, deltas[:, h, s])
    return v


def test_criterion_8_verifier_consistency(strategy_grid):
    """Two gap routes agree bit-tightly; best response is unbeatable."""
    with _criterion(8):
        for tag, sigma in strategy_grid:
            rng = make_rng(f"acc8-{tag}")
            utility = rng.uniform(-2.0, 2.0, (2,) + sigma.action_counts)
            skeleton, reward, policy = _embed(utility, sigma)
            concepts = [Concept.CE, Concept.CCE]
            if is_product(sigma):
                concepts.append(Concept.NE)
            for concept in concepts:
                table = check_strict(skeleton, reward, policy, concept)
                oracle = nfg_oracle(utility, sigma, concept)
                assert set(table.per_constraint) == set(
                    oracle.per_constraint
                ), (tag, concept)
                for key, gap in table.per_constraint.items():
                    assert abs(gap - oracle.per_constraint[key]) <= 1e-12
                assert table.argmin == oracle.argmin, (tag, concept)

        for g in range(20):
            rng = make_rng(f"acc8-br-{g}")
            skeleton = random_skeleton(rng)
            policy = random_policy(rng, skeleton)
            reward = random_reward(rng, skeleton)
            player = g % skeleton.num_players
            br = best_response(skeleton, reward, policy, player)
            count = skeleton.action_counts[player]
            deltas = rng.dirichlet(
                np.full(count, 0.6),
                size=(2000, skeleton.horizon, skeleton.num_states),
            )
            values = _deviation_values(
                skeleton, reward, policy, player, deltas
            )
            assert np.all(
                values[:, : skeleton.horizon] <= br.v[None, : skeleton.horizon]
                + 1e-9
            ), g


def test_criterion_9_scce_check_scales_subquadratically():
    """check_scce stays near-linear in the joint-action count."""
    with _criterion(9):
        sides = [32, 100, 316]
        times = []
        for side in sides:
            rng = make_rng(f"acc9-{side}")
            probs = rng.dirichlet(np.full(side * side, 0.9)).reshape(
                side, side
            )
            sigma = JointMixedStrategy(probs)
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                check_scce(sigma)
                best = min(best, time.perf_counter() - start)
            times.append(best)
        size_ratio = (sides[-1] ** 2) / (sides[0] ** 2)  # ~97.5x
        time_ratio = times[-1] / max(times[0], 1e-4)
        # Linear scaling would put the ratio near the size ratio; quadratic
        # near its square (~9500x).  The cutoff sits well between them.
        assert time_ratio <= 1e3, (times, time_ratio)
