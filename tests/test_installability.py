import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdesign import (
    Concept,
    JointMixedStrategy,
    MarkovPolicy,
    NotProductError,
    check,
    check_markov,
    check_scce,
)
from conftest import make_rng, sigma_corr, sigma_ex


def product_strategies():
    def build(pair):
        left, right = pair
        a = np.array(left) / np.sum(left)
        b = np.array(right) / np.sum(right)
        return JointMixedStrategy(np.outer(a, b))

    side = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3).filter(
        lambda w: sum(w) > 1e-6
    )
    return st.tuples(side, side).map(build)


class TestNash:
    def test_point_mass_installable(self):
        probs = np.zeros((2, 2))
        probs[1, 0] = 1.0
        rep = check(JointMixedStrategy(probs), Concept.NE)
        assert rep.installable
        assert rep.certificate is None

    def test_mixed_product_not_installable(self):
        sigma = JointMixedStrategy(np.outer([0.5, 0.5], [1.0, 0.0]))
        rep = check(sigma, Concept.NE)
        assert not rep.installable
        assert rep.certificate == (0,)

    def test_correlated_raises(self):
        with pytest.raises(NotProductError):
            check(sigma_corr(), Concept.NE)

    @settings(max_examples=60, deadline=None)
    @given(product_strategies())
    def test_single_support_characterization(self, sigma):
        expected = all(
            np.count_nonzero(sigma.marginal(i) > 0) == 1
            for i in range(sigma.num_players)
        )
        assert check(sigma, Concept.NE).installable == expected


class TestCorrelated:
    def test_corr_installable(self):
        rep = check(sigma_corr(), Concept.CE)
        assert rep.installable

    def test_uniform_certificate(self):
        rep = check(JointMixedStrategy(np.full((2, 2), 0.25)), Concept.CE)
        assert not rep.installable
        assert rep.certificate == (0, 0, 1)

    def test_ex_not_ce_installable(self):
        # first two recommendations of the row player share one conditional
        rep = check(sigma_ex(), Concept.CE)
        assert not rep.installable
        assert rep.certificate == (0, 0, 1)

    def test_certificate_is_first_in_scan_order(self):
        probs = np.zeros((3, 3))
        probs[0, 0] = probs[1, 0] = probs[2, 0] = 1 / 3
        rep = check(JointMixedStrategy(probs), Concept.CE)
        assert rep.certificate == (0, 0, 1)

    def test_single_support_vacuous(self):
        probs = np.zeros((2, 2))
        probs[0, 1] = 1.0
        assert check(JointMixedStrategy(probs), Concept.CE).installable

    def test_tolerance_configurable(self):
        probs = np.array([[0.25, 0.25], [0.25 + 1e-5, 0.25 - 1e-5]])
        sigma = JointMixedStrategy(probs)
        assert check(sigma, Concept.CE).installable


class TestCoarse:
    def test_corr_installable_with_pair_evidence(self):
        rep = check_scce(sigma_corr())
        assert rep.installable
        assert rep.evidence == (("pair", 0, 1), ("pair", 0, 1))

    def test_ex_installable(self):
        rep = check_scce(sigma_ex())
        assert rep.installable
        assert rep.evidence == (("pair", 0, 2), ("pair", 0, 1))

    def test_point_mass_single_support(self):
        probs = np.zeros((2, 2))
        probs[1, 1] = 1.0
        rep = check_scce(JointMixedStrategy(probs))
        assert rep.installable
        assert rep.evidence == (("single", 1), ("single", 1))

    def test_uniform_not_installable(self):
        rep = check_scce(JointMixedStrategy(np.full((2, 2), 0.25)))
        assert not rep.installable
        assert rep.certificate == (0, 0, 1)

    def test_failure_names_anchor_and_next(self):
        # column player mixes but sees the same conditional either way
        probs = np.outer([1.0, 0.0], [0.4, 0.6])
        rep = check_scce(JointMixedStrategy(probs))
        assert not rep.installable
        assert rep.certificate == (1, 0, 1)


class TestRelations:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_ce_installable_implies_cce_installable(self, draw):
        rng = make_rng(f"relation-{draw}")
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        size = int(rng.integers(1, np.prod(shape) + 1))
        cells = rng.choice(int(np.prod(shape)), size=size, replace=False)
        probs = np.zeros(int(np.prod(shape)))
        probs[cells] = rng.dirichlet(np.full(size, 0.7))
        sigma = JointMixedStrategy(probs.reshape(shape))
        if check(sigma, Concept.CE).installable:
            assert check_scce(sigma).installable

    def test_dispatch(self):
        sigma = sigma_corr()
        assert check(sigma, Concept.CE).concept == Concept.CE
        assert check(sigma, Concept.CCE).concept == Concept.CCE
        with pytest.raises(ValueError):
            check(sigma, "nope")


class TestMarkov:
    def test_conjunction_over_stages(self):
        good = sigma_corr().probs
        bad = np.full((2, 2), 0.25)
        stages = np.stack([np.stack([good, bad])])
        verdict = check_markov(MarkovPolicy(stages=stages), Concept.CCE)
        assert not verdict.installable
        assert verdict.stages[(0, 0)].installable
        assert not verdict.stages[(0, 1)].installable

    def test_all_stages_reported(self):
        stages = np.broadcast_to(sigma_corr().probs, (2, 3, 2, 2)).copy()
        verdict = check_markov(MarkovPolicy(stages=stages), Concept.CE)
        assert verdict.installable
        assert set(verdict.stages) == {(h, s) for h in range(2) for s in range(3)}

    def test_nash_names_correlated_stage(self):
        stages = np.full((2, 3, 2, 2), 0.25)
        stages[1, 2] = sigma_corr().probs
        with pytest.raises(NotProductError, match=r"\(h=1, s=2\)"):
            check_markov(MarkovPolicy(stages=stages), Concept.NE)

    def test_nash_requires_product_stages(self):
        stages = sigma_corr().probs.reshape(1, 1, 2, 2)
        with pytest.raises(NotProductError):
            check_markov(MarkovPolicy(stages=stages), Concept.NE)
