"""The Markov paths computed over all stages at once, against their
per-stage definitions.

``check_markov``, ``markov_witness``, ``epsilon_markov_witness`` and
``check_strict`` work on each player's conditional table for every
``(stage, state)`` together, over the deviation sets that
``deviation_mask`` gives for every stage at once.  The references below
loop over stages, as the definitions read, and must agree with them:
verdicts, certificates, evidence, deviation sets, error stages and messages
exactly; rewards and gaps within 1e-12, with the gap keys in the same order.
"""

import hashlib
import struct

import numpy as np
import pytest

from eqdesign import (
    Concept,
    DeviationClass,
    EpsilonConfig,
    JointMixedStrategy,
    MarkovGameSkeleton,
    MarkovPolicy,
    NotProductError,
    StageCheckError,
    best_response,
    check,
    check_markov,
    check_strict,
    epsilon_markov_witness,
    gamma_ce,
    gamma_cce,
    markov_witness,
    policy_eval,
    support,
    witness_utility,
)
from eqdesign.games import genuine_deviations
from eqdesign.installability import deviation_mask
from conftest import (
    InfeasibleMargin,
    conditional,
    epsilon_stage_reference,
    installable_policy,
    is_product,
    make_rng,
    random_policy,
    random_reward,
    random_skeleton,
)

BOUND = 2.0
ALL_STAGES_TOL = 1e-12

# (action counts, states, horizon): two and three players, players with a
# single action, and a one-stage game.
SHAPES = (
    ((2, 2), 3, 2),
    ((3, 2), 2, 3),
    ((2, 2, 2), 2, 2),
    ((2, 1, 3), 2, 2),
    ((1, 2, 2), 3, 2),
    ((3, 3), 1, 1),
)


def skeleton_for(rng, counts, num_s, horizon) -> MarkovGameSkeleton:
    num_a = int(np.prod(counts))
    trans = rng.dirichlet(
        np.full(num_s, 0.9), size=(horizon, num_s, num_a)
    ).reshape((horizon, num_s) + counts + (num_s,))
    return MarkovGameSkeleton(
        action_sets=tuple(tuple(f"a{k}" for k in range(c)) for c in counts),
        states=tuple(f"s{k}" for k in range(num_s)),
        horizon=horizon,
        transitions=trans,
        initial_dist=rng.dirichlet(np.full(num_s, 0.9)),
    )


def product_stage(rng, counts, pure_share) -> np.ndarray:
    prod = np.ones(())
    for c in counts:
        if rng.random() < pure_share:
            marg = np.eye(c)[rng.integers(c)]
        else:
            marg = rng.dirichlet(np.full(c, 1.0))
        prod = np.multiply.outer(prod, marg)
    return prod


def product_policy(rng, skeleton, pure_share=0.35) -> MarkovPolicy:
    stages = np.zeros(
        (skeleton.horizon, skeleton.num_states) + skeleton.action_counts
    )
    for h, s in np.ndindex(skeleton.horizon, skeleton.num_states):
        stages[h, s] = product_stage(rng, skeleton.action_counts, pure_share)
    return MarkovPolicy(stages=stages)


def broken_policy(rng, policy) -> MarkovPolicy:
    """One stage replaced by a mixed product strategy, as in the bench."""
    stages = np.array(policy.stages)
    h = int(rng.integers(policy.horizon))
    s = int(rng.integers(policy.num_states))
    stages[h, s] = product_stage(rng, policy.action_counts, 0.0)
    return MarkovPolicy(stages=stages)


def build_grid():
    grid = []
    for counts, num_s, horizon in SHAPES:
        for k in range(2):
            rng = make_rng(f"stage-tables-{counts}-{num_s}-{horizon}-{k}")
            sk = skeleton_for(rng, counts, num_s, horizon)
            mixed = installable_policy(rng, sk, allow_pure=False)
            policies = {
                "installable": installable_policy(rng, sk),
                "mixed": mixed,
                "broken": broken_policy(rng, mixed),
                "random": random_policy(rng, sk),
                "product": product_policy(rng, sk),
                "pure": product_policy(rng, sk, pure_share=1.0),
            }
            for name, pol in policies.items():
                tag = f"{'x'.join(map(str, counts))}-{k}-{name}"
                grid.append((tag, sk, pol, random_reward(rng, sk)))
    return grid


GRID = build_grid()
IDS = [entry[0] for entry in GRID]


def is_product_policy(policy) -> bool:
    return policy.first_correlated() is None


# ------------------------------------------------------------ references


def ref_check(sigma, concept, atol=1e-9):
    """The closed-form checks written per action with ``conditional``."""
    n = sigma.num_players
    if concept == Concept.NE:
        for i in range(n):
            if len(support(sigma, i)) != 1:
                return (False, (i,), ())
        return (True, None, ())
    evidence = []
    for i in range(n):
        sup = support(sigma, i)
        flat = {j: conditional(sigma, i, j).flat() for j in sup}

        def same(a, b):
            return np.max(np.abs(flat[a] - flat[b])) <= atol

        if concept == Concept.CE:
            for a, j in enumerate(sup):
                for k in sup[a + 1 :]:
                    if same(j, k):
                        return (False, (i, j, k), ())
            continue
        if len(sup) == 1:
            evidence.append(("single", sup[0]))
            continue
        partner = next((j for j in sup if not same(sup[0], j)), None)
        if partner is None:
            return (False, (i, sup[0], sup[1]), ())
        evidence.append(("pair", sup[0], partner))
    return (True, None, tuple(evidence))


def ref_cancel(policy, skeleton, stage_u, bound):
    """Continuation-cancelling rewards, one (stage, state, player) at a time."""
    n = skeleton.num_players
    horizon, num_s = skeleton.horizon, skeleton.num_states
    rewards = np.zeros((n, horizon, num_s) + skeleton.action_counts)
    values = np.zeros((n, horizon + 1, num_s))
    for h in range(horizon - 1, -1, -1):
        for s in range(num_s):
            u = stage_u[(h, s)]
            for i in range(n):
                cont = np.tensordot(
                    skeleton.transitions[h, s], values[i, h + 1], axes=1
                )
                rewards[i, h, s] = u[i] - cont
                values[i, h, s] = np.sum(policy.stages[h, s] * u[i])
    return np.clip(rewards, -bound, bound)


def ref_markov_witness(policy, skeleton, bound, concept):
    stage_u = {}
    for h, s in np.ndindex(skeleton.horizon, skeleton.num_states):
        sigma = policy.stage(h, s)
        if not check(sigma, concept).installable:
            raise StageCheckError(
                f"stage (h={h}, s={s}) is not {concept.value}-installable",
                stage=(h, s),
            )
        # The stage bound: a one-stage game has no continuation to cancel.
        stage_u[(h, s)] = bound / min(skeleton.horizon, 2) * witness_utility(sigma)
    return ref_cancel(policy, skeleton, stage_u, bound)


def ref_epsilon_markov_witness(policy, skeleton, concept, config):
    """Stages that cannot carry the margin are named; input errors (a
    correlated Nash target, checked first, or a deviation class the concept
    does not cover) are raised as they are."""
    bound = config.bound / min(skeleton.horizon, 2)
    stages = list(np.ndindex(skeleton.horizon, skeleton.num_states))
    for h, s in stages:
        if concept == Concept.NE and not is_product(policy.stage(h, s)):
            raise NotProductError(f"stage (h={h}, s={s}) is not a product strategy")
    stage_u = {}
    for h, s in stages:
        try:
            stage_u[(h, s)] = epsilon_stage_reference(
                policy.stage(h, s), concept, bound, config
            )
        except InfeasibleMargin as exc:
            raise StageCheckError(
                f"stage (h={h}, s={s}): {exc}", stage=(h, s), max_gap=exc.max_gap
            )
    return ref_cancel(policy, skeleton, stage_u, config.bound)


def ref_deviation_q(sk, rw, pol, player, dev_class):
    """Best-response action values, one (stage, state) at a time."""
    count = sk.action_counts[player]
    q = np.zeros((sk.horizon, sk.num_states, count))
    v_next = np.zeros(sk.num_states)
    for h in range(sk.horizon - 1, -1, -1):
        v_here = np.zeros(sk.num_states)
        for s in range(sk.num_states):
            stage = pol.stage(h, s)
            ev = np.tensordot(sk.transitions[h, s], v_next, axes=1)
            payoff = np.moveaxis(rw.rewards[player, h, s] + ev, player, 0)
            marg = stage.opponent_marginal(player).reshape(-1)
            q[h, s] = payoff.reshape(count, -1) @ marg
            allowed = (
                genuine_deviations(stage, player)
                if dev_class == DeviationClass.NEVER_TARGET
                else range(count)
            )
            v_here[s] = max(q[h, s, a] for a in allowed)
        v_next = v_here
    return q


def ref_gaps(sk, rw, pol, concept, dev_class):
    """check_strict's gap dict, built one (stage, state) at a time."""
    values = policy_eval(sk, rw, pol)
    gaps = {}
    for i in range(sk.num_players):
        count = sk.action_counts[i]
        if count < 2:
            continue
        if concept != Concept.CE:
            q = ref_deviation_q(sk, rw, pol, i, dev_class)
        for h, s in np.ndindex(sk.horizon, sk.num_states):
            stage = pol.stage(h, s)
            if concept != Concept.CE:
                for m in genuine_deviations(stage, i):
                    gaps[(i, h, s, m)] = float(values.v[i, h, s] - q[h, s, m])
                continue
            qs = values.q[i, h, s]
            for j in support(stage, i):
                cond = conditional(stage, i, j).flat()
                on_rec = cond @ np.take(qs, j, axis=i).reshape(-1)
                for k in range(count):
                    if k != j:
                        off = cond @ np.take(qs, k, axis=i).reshape(-1)
                        gaps[(i, h, s, j, k)] = float(on_rec - off)
    return gaps


def min_gamma(policy, gfun) -> float:
    return min(
        gfun(policy.stage(h, s)).value
        for h in range(policy.horizon)
        for s in range(policy.num_states)
    )


# ------------------------------------------------------------- battery


def concepts_for(policy):
    return (Concept.CE, Concept.CCE) + (
        (Concept.NE,) if is_product_policy(policy) else ()
    )


@pytest.mark.parametrize("tag, sk, pol, rw", GRID, ids=IDS)
class TestAllStagesMatchPerStage:
    def test_check_markov_reports(self, tag, sk, pol, rw):
        for concept in concepts_for(pol):
            verdict = check_markov(pol, concept)
            assert list(verdict.stages) == list(
                np.ndindex(sk.horizon, sk.num_states)
            )
            for (h, s), rep in verdict.stages.items():
                sigma = pol.stage(h, s)
                assert rep == check(sigma, concept)
                ref = ref_check(sigma, concept)
                assert (rep.installable, rep.certificate, rep.evidence) == ref
            assert verdict.installable == all(
                rep.installable for rep in verdict.stages.values()
            )

    def test_markov_witness(self, tag, sk, pol, rw):
        for concept in concepts_for(pol):
            try:
                expected = ref_markov_witness(pol, sk, BOUND, concept)
            except StageCheckError as exc:
                with pytest.raises(StageCheckError) as err:
                    markov_witness(pol, sk, BOUND, concept)
                assert err.value.stage == exc.stage
                assert str(err.value) == str(exc)
                continue
            got = markov_witness(pol, sk, BOUND, concept).rewards
            np.testing.assert_allclose(got, expected, rtol=0, atol=ALL_STAGES_TOL)

    def test_epsilon_markov_witness(self, tag, sk, pol, rw):
        runs = [
            (Concept.CCE, DeviationClass.UNRESTRICTED, gamma_cce),
            (Concept.CE, DeviationClass.NEVER_RECOMMENDED, gamma_ce),
            (Concept.NE, DeviationClass.NEVER_TARGET, None),
            (Concept.NE, DeviationClass.UNRESTRICTED, None),
            (Concept.CE, DeviationClass.UNRESTRICTED, gamma_ce),
        ]
        for concept, dev_class, gfun in runs:
            split = BOUND / sk.horizon
            scale = 2.0 if gfun is None else min_gamma(pol, gfun)
            for share in (0.5, 1.5):
                cfg = EpsilonConfig(
                    epsilon=share * split * scale if scale > 0 else 0.0,
                    bound=BOUND,
                    deviation_class=dev_class,
                )
                try:
                    expected = ref_epsilon_markov_witness(pol, sk, concept, cfg)
                except StageCheckError as exc:
                    with pytest.raises(StageCheckError) as err:
                        epsilon_markov_witness(pol, sk, concept, cfg)
                    assert err.value.stage == exc.stage
                    assert str(err.value) == str(exc)
                    assert err.value.max_gap == exc.max_gap
                    continue
                except ValueError as exc:
                    with pytest.raises(ValueError) as err:
                        epsilon_markov_witness(pol, sk, concept, cfg)
                    assert type(err.value) is type(exc)
                    assert str(err.value) == str(exc)
                    continue
                got = epsilon_markov_witness(pol, sk, concept, cfg).rewards
                np.testing.assert_allclose(
                    got, expected, rtol=0, atol=ALL_STAGES_TOL
                )

    def test_deviation_mask(self, tag, sk, pol, rw):
        for i, count in enumerate(pol.action_counts):
            p = pol.marginal(i)
            coarse = {c: deviation_mask(p, c) for c in (Concept.NE, Concept.CCE)}
            pairs = deviation_mask(p, Concept.CE)
            for h, s in np.ndindex(sk.horizon, sk.num_states):
                sigma = pol.stage(h, s)
                genuine = np.isin(np.arange(count), genuine_deviations(sigma, i))
                for mask in coarse.values():
                    assert np.array_equal(mask[h, s], genuine), (i, h, s)
                sup = support(sigma, i)
                want = [[j in sup and k != j for k in range(count)]
                        for j in range(count)]
                assert np.array_equal(pairs[h, s], want), (i, h, s)

    def test_check_strict_gaps(self, tag, sk, pol, rw):
        runs = [
            (Concept.CE, DeviationClass.UNRESTRICTED),
            (Concept.CCE, DeviationClass.UNRESTRICTED),
            (Concept.CCE, DeviationClass.NEVER_TARGET),
        ]
        if is_product_policy(pol):
            runs.append((Concept.NE, DeviationClass.NEVER_TARGET))
        for concept, dev_class in runs:
            try:
                expected = ref_gaps(sk, rw, pol, concept, dev_class)
            except ValueError:
                with pytest.raises(ValueError, match="no action"):
                    check_strict(sk, rw, pol, concept, dev_class=dev_class)
                continue
            got = check_strict(sk, rw, pol, concept, dev_class=dev_class)
            assert list(got.per_constraint) == list(expected)
            diffs = [abs(got.per_constraint[k] - v) for k, v in expected.items()]
            assert max(diffs, default=0.0) <= ALL_STAGES_TOL


# ------------------------------------------------------------ pinned


def pinned_instance(k):
    rng = make_rng(f"pinned-gaps-{k}")
    if k == 3:
        sk = random_skeleton(rng, num_players=3, max_states=3, max_horizon=3,
                             max_actions=2)
    else:
        sk = random_skeleton(rng, max_states=4, max_horizon=4)
    return (
        sk,
        installable_policy(rng, sk, allow_pure=False),
        product_policy(rng, sk),
        random_reward(rng, sk),
    )


def pinned_reports(k):
    sk, pol, prod, rw = pinned_instance(k)
    eps = 0.5 * (BOUND / sk.horizon) * min_gamma(pol, gamma_cce)
    eps_cfg = EpsilonConfig(epsilon=eps, bound=BOUND)
    return {
        "ce": check_strict(sk, rw, pol, Concept.CE),
        "cce": check_strict(sk, rw, pol, Concept.CCE),
        "ne-never-target": check_strict(
            sk, rw, prod, Concept.NE, dev_class=DeviationClass.NEVER_TARGET
        ),
        "witness": check_strict(
            sk, markov_witness(pol, sk, BOUND), pol, Concept.CCE
        ),
        "epsilon-witness": check_strict(
            sk, epsilon_markov_witness(pol, sk, Concept.CCE, eps_cfg), pol,
            Concept.CCE,
        ),
    }


def summary(report):
    return (
        report.min_gap,
        report.argmin,
        len(report.per_constraint),
        sum(report.per_constraint.values()),
    )


class TestPinnedGaps:
    """Gap tables recorded from the per-stage implementation, before the
    stages were computed together: (min_gap, argmin, key count, sum)."""

    EXPECTED = {
        0: {
            "ce": (-2.8649505747852504, (1, 1, 3, 1, 0), 96, 4.042076472966162),
            "cce": (-2.141148253437439, (1, 0, 3, 1), 48, -18.703993194057276),
            "ne-never-target": (
                -3.9461502925146537, (1, 0, 1, 1), 39, 1.0452301727596436
            ),
            "witness": (0.026041978139570987, (0, 1, 2, 0), 48, 10.381228391831831),
            "epsilon-witness": (
                0.013020989069785383, (0, 1, 1, 0), 48, 1.6551653203077787
            ),
        },
        1: {
            "ce": (-2.8534350620415125, (1, 2, 1, 2, 1), 64, -12.79046108103002),
            "cce": (-3.2553896664244597, (1, 0, 0, 2), 40, -46.35232956159875),
            "ne-never-target": (
                -4.408391673879455, (1, 1, 0, 1), 36, -61.95514920154862
            ),
            "witness": (0.020046281909159025, (0, 3, 1, 1), 40, 12.481544912983402),
            "epsilon-witness": (
                0.00029867287749687967, (1, 3, 0, 1), 40, 0.06026252764461846
            ),
        },
        2: {
            "ce": (-2.741174527875998, (1, 1, 1, 0, 2), 72, -10.526649953960954),
            "cce": (-4.023242041894065, (1, 0, 1, 0), 45, -43.680566430130966),
            "ne-never-target": (
                -3.8916715948622667, (1, 1, 0, 1), 43, -44.25425346648718
            ),
            "witness": (0.0017425840941133197, (1, 2, 1, 2), 45, 7.766469599385499),
            "epsilon-witness": (
                0.0005808613647043789, (1, 2, 2, 0), 45, 0.11353803028635125
            ),
        },
        3: {
            "ce": (-1.6547884914008724, (0, 0, 2, 1, 0), 18, -2.3931508533389083),
            "cce": (-1.209915332354043, (0, 0, 2, 0), 18, -0.7476918888196816),
            "ne-never-target": (
                -1.5509087952464704, (2, 0, 2, 0), 15, 0.28393058697638596
            ),
            # One stage: the witness is paid the stage bound B / min(H, 2),
            # which is the whole bound.
            "witness": (
                0.003996296207655847, (0, 0, 1, 1), 18, 4.130508164226965
            ),
            "epsilon-witness": (
                0.0019981481038279097, (0, 0, 2, 1), 18, 0.5448696810719447
            ),
        },
    }

    @pytest.mark.parametrize("k", range(4))
    def test_gap_tables_survive(self, k):
        for name, report in pinned_reports(k).items():
            min_gap, argmin, count, total = self.EXPECTED[k][name]
            got = summary(report)
            assert got[1:3] == (argmin, count), name
            assert got[0] == pytest.approx(min_gap, rel=0, abs=1e-12), name
            assert got[3] == pytest.approx(total, rel=0, abs=1e-12), name


def report_bytes(report) -> str:
    """SHA-256 of ``repr(min_gap)``, ``argmin`` and every gap's key and
    float bytes in sorted key order: a last-bit change in any gap moves it."""
    sha = hashlib.sha256(f"{report.min_gap!r} {report.argmin!r}".encode())
    for key, gap in sorted(report.per_constraint.items()):
        sha.update(repr(key).encode() + struct.pack("<d", gap))
    return sha.hexdigest()


def large_reports():
    """CE (never-recommended) and CCE on one seeded 8,6,(4,4) target under
    its witness and under a noise reward."""
    rng = make_rng("pinned-report-bytes")
    sk = skeleton_for(rng, (4, 4), 8, 6)
    pol = installable_policy(rng, sk, allow_pure=False)
    noise = random_reward(rng, sk)
    reports = {}
    for concept, dev in (
        (Concept.CE, DeviationClass.NEVER_RECOMMENDED),
        (Concept.CCE, DeviationClass.UNRESTRICTED),
    ):
        rewards = {"witness": markov_witness(pol, sk, BOUND, concept), "noise": noise}
        for name, rw in rewards.items():
            reports[f"{concept.value}-{name}"] = check_strict(
                sk, rw, pol, concept, dev_class=dev
            )
    return reports


class TestPinnedReportBytes:
    """:func:`report_bytes` of every :func:`pinned_reports` sample and of
    :func:`large_reports`, recorded before ``check_strict``'s array paths
    were trimmed: unlike :class:`TestPinnedGaps` they see the last bit.
    Being bit-exact, they can move with the numpy or BLAS build."""

    EXPECTED = {
        "0/ce": "0ac4a0aedd0dc1410145b26062f34fae90b0cc7eef654b4550eab8f25bf66e09",
        "0/cce": "886c45303c709a38cfc325e26dd943ce765102e8b96b7062f6f1cae42579384a",
        "0/ne-never-target": "2b90f263f52c07a2c8c18a8ccaf8c19f6a71623c507d5c4e9977f89ac440c80d",
        "0/witness": "9489225a4e495c98affcd813d5943ec8cefe7e5242aa0ee42aaeb117e5827fdb",
        "0/epsilon-witness": "b5adc4eb8d21e4cac1a670f769227491c2b79023d62c71b13aa92e5e31391b6f",
        "1/ce": "9b04cb92743eecc19b08b49afedd5668b2a124c6e42a8b74098948d644d236a6",
        "1/cce": "6476c600ca5cbb6e9c6789c665e022e68d694544460b6c05e0c41bc730cc5c82",
        "1/ne-never-target": "8ce5d1c765f703de4dccd306e0f140af27abe4c1400c955884eb9fec32cfa9b1",
        "1/witness": "ce17d0811d603c61650aa7e8324642630aad4ce0c3051a3946b4e5f6d830b5a4",
        "1/epsilon-witness": "538908299207fc57ea9a780757b904ad793ea72e11c55ce82a0dbc6ab092a9dd",
        "2/ce": "f779d8c452fedf03708ad1373b4b0cb880cfb4070d21209ecac12079a950810f",
        "2/cce": "2773c04795e6f4ccc54c5b236efe2e82bee33e42258ba47afd32a5b1f84464f4",
        "2/ne-never-target": "e1f17710b5372241becbfa6cdd6c85950c630608dc3392ad84c71f28bdd86e34",
        "2/witness": "6d18cf80c0598684686b9c1d9e7098aa73341cadd4bffd30e1aa5b4ff5d4ed3e",
        "2/epsilon-witness": "e8a9f7b5fa5084a9c6d4a9cc0cbbd9374fbced2e1def143c6e784f76ff85fd68",
        "3/ce": "33c419d468c4a732804eac8bfcb2e3b2e41e4550e8e5ae975d90425d656b1a59",
        "3/cce": "0bf04dcd21ed586c051b971cf9ac3d6de7e9fd452cfc7cfe3606fef2c956f82c",
        "3/ne-never-target": "ecda91980bc3642dd31337ebcb54acbdfdddccb87bb4d8ce08f1a8d3f041f5b9",
        "3/witness": "bf25c9838a7c5a19d4d8c3927678afe714254f042ed962fe94ed1be84d1fabb9",
        "3/epsilon-witness": "7ece4422d81de4a3ec947eeac9411c2cec817d20cf34064b46a1c184319c594b",
        "8_6_4x4/ce-witness": "0935c09990123ac58b152d7a869b17b616f7b86f16755e11beb03cfbdd2c420e",
        "8_6_4x4/ce-noise": "2952b634410cac0222a80ac589a12d430baeaf9260a30587054ba363668000da",
        "8_6_4x4/cce-witness": "56c6ae3f478cb431728d999b704394bdfac59da6e914dea610606c442904efe0",
        "8_6_4x4/cce-noise": "121d61e1f81082422bd63cf3fa0f6056f0c3de650233a85a7b9b9c473c4349fa",
    }

    def test_reports_are_pinned_bitwise(self):
        got = {
            f"{k}/{name}": report_bytes(report)
            for k in range(4)
            for name, report in pinned_reports(k).items()
        }
        got.update(
            (f"8_6_4x4/{name}", report_bytes(report))
            for name, report in large_reports().items()
        )
        assert got == self.EXPECTED


# ------------------------------------------------------- error stages


def two_bad_stages():
    """A policy whose stages (0, 1) and (1, 0) no concept can install."""
    rng = make_rng("two-bad-stages")
    sk = skeleton_for(rng, (2, 2), 2, 2)
    stages = np.array(installable_policy(rng, sk, allow_pure=False).stages)
    stages[0, 1] = product_stage(rng, (2, 2), 0.0)
    stages[1, 0] = product_stage(rng, (2, 2), 0.0)
    return sk, MarkovPolicy(stages=stages)


class TestErrorStages:
    def test_witness_names_first_bad_stage(self):
        sk, pol = two_bad_stages()
        with pytest.raises(StageCheckError) as err:
            markov_witness(pol, sk, BOUND)
        assert err.value.stage == (0, 1)
        assert str(err.value) == "stage (h=0, s=1) is not cce-installable"

    def test_epsilon_witness_names_first_bad_stage(self):
        sk, pol = two_bad_stages()
        cfg = EpsilonConfig(epsilon=0.01, bound=BOUND)
        with pytest.raises(StageCheckError) as err:
            epsilon_markov_witness(pol, sk, Concept.CCE, cfg)
        assert err.value.stage == (0, 1)
        assert str(err.value) == (
            "stage (h=0, s=1): target is not cce-installable"
        )

    def test_never_target_error_scans_stages_downward(self):
        rng = make_rng("br-no-action")
        sk = skeleton_for(rng, (2, 1), 3, 3)
        pol = product_policy(rng, sk)
        with pytest.raises(ValueError) as err:
            best_response(
                sk, random_reward(rng, sk), pol, 1, DeviationClass.NEVER_TARGET
            )
        assert str(err.value) == (
            "never-target class leaves player 1 no action at (h=2, s=0)"
        )


def test_markov_paths_build_no_stage_strategies(monkeypatch):
    rng = make_rng("no-stage-objects")
    sk = random_skeleton(rng, max_states=3, max_horizon=3)
    pol = installable_policy(rng, sk, allow_pure=False)
    prod = product_policy(rng, sk, pure_share=1.0)
    rw = random_reward(rng, sk)
    built = []
    original = JointMixedStrategy.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(JointMixedStrategy, "__post_init__", counting)
    for concept in (Concept.CE, Concept.CCE):
        check_markov(pol, concept)
        check_strict(sk, rw, pol, concept)
    check_markov(prod, Concept.NE)
    check_strict(sk, rw, prod, Concept.NE, dev_class=DeviationClass.NEVER_TARGET)
    markov_witness(pol, sk, BOUND)
    eps = 0.5 * (BOUND / sk.horizon)
    epsilon_markov_witness(
        prod, sk, Concept.NE,
        EpsilonConfig(epsilon=eps, bound=BOUND,
                      deviation_class=DeviationClass.NEVER_TARGET),
    )
    assert built == []
    assert pol.conditional_table is pol.conditional_table
