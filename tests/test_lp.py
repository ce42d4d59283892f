"""Simplex solver tests: statuses, bounds handling, cycling, oracle battery.

Randomized programs use integer data and finite boxes so exhaustive vertex
enumeration is an exact independent oracle; see conftest.vertex_optimum.
"""

import importlib
import math

import numpy as np
import pytest

from eqdesign import LinearProgram, LpInputError, LpStatus, solve

from conftest import (
    build_lp,
    inequality_form,
    make_rng,
    random_lp_case,
    vertex_optimum,
)


def simple_program():
    lp = LinearProgram(2)
    lp.set_objective([-1.0, -1.0])
    lp.add_constraint([1.0, 1.0], "<=", 1.0)
    lp.set_bounds(0, 0.0, math.inf)
    lp.set_bounds(1, 0.0, math.inf)
    return lp


def unbounded_by_free_row_column():
    lp = LinearProgram(2)
    lp.set_objective([-1.0, 0.0])
    lp.add_constraint([0.0, 1.0], "<=", 1.0)
    lp.set_bounds(1, 0.0, 1.0)
    return lp


def unbounded_without_rows(lower):
    """One column and no row; its cost pulls it toward -inf when ``lower``
    is -inf, else toward +inf."""
    lp = LinearProgram(1)
    lp.set_objective([1.0 if lower == -math.inf else -1.0])
    lp.set_bounds(0, lower, math.inf)
    return lp


def pulled_program(case, box_rows=True):
    """``build_lp(*case)`` with each negative-cost column's upper bound
    lifted to +inf, so that its cost pulls it there; ``box_rows`` gives the
    old upper bound back as a row, which keeps the vertex oracle exact."""
    coeffs, rels, rhs, cost, lo, hi = case
    lp = build_lp(*case)
    for j in np.flatnonzero(cost < 0.0):
        lp.set_bounds(j, lo[j], math.inf)
        if box_rows:
            lp.add_constraint(np.eye(len(cost))[j], "<=", hi[j])
    return lp


def check_pulled_battery(tag, count):
    """Solve pulled programs with their box rows and check each against its
    vertex optimum; returns the summed phase steps."""
    steps = np.zeros(2, dtype=int)
    for num_vars in (2, 3, 4):
        for k in range(count):
            case = random_lp_case(make_rng(f"{tag}-{num_vars}-{k}"), num_vars)
            sol = solve(pulled_program(case))
            steps += sol.phase_steps
            coeffs, rels, rhs, cost, lo, hi = case
            rows, limits = inequality_form(coeffs, rels, rhs, lo, hi)
            oracle = vertex_optimum(cost, rows, limits)
            if oracle is None:
                assert sol.status == LpStatus.INFEASIBLE, (num_vars, k)
            else:
                assert sol.status == LpStatus.OPTIMAL, (num_vars, k)
                assert sol.objective == pytest.approx(oracle, abs=1e-6)
    return steps


class TestStatuses:
    def test_optimal(self):
        sol = solve(simple_program())
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)
        assert sol.x is not None and sol.iterations > 0

    def test_infeasible(self):
        lp = LinearProgram(2)
        lp.add_constraint([1.0, 1.0], ">=", 3.0)
        lp.add_constraint([1.0, 1.0], "<=", 1.0)
        for j in range(2):
            lp.set_bounds(j, 0.0, 10.0)
        sol = solve(lp)
        assert sol.status == LpStatus.INFEASIBLE
        assert sol.x is None and sol.objective is None

    def test_unbounded(self):
        sol = solve(unbounded_by_free_row_column())
        assert sol.status == LpStatus.UNBOUNDED

    def test_degenerate_duplicate_rows(self):
        lp = LinearProgram(1)
        lp.set_objective([-1.0])
        lp.add_constraint([1.0], "<=", 1.0)
        lp.add_constraint([1.0], "<=", 1.0)
        lp.set_bounds(0, 0.0, math.inf)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)


class TestBounds:
    def test_constraint_free_program_hits_lower_bound(self):
        lp = LinearProgram(1)
        lp.set_objective([1.0])
        lp.set_bounds(0, -3.0, math.inf)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.iterations == 0
        assert sol.x[0] == -3.0

    def test_constraint_free_program_unbounded(self):
        sol = solve(unbounded_without_rows(-math.inf))
        assert sol.status == LpStatus.UNBOUNDED

    def test_constraint_free_zero_objective(self):
        lp = LinearProgram(2)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == 0.0

    def test_upper_bound_only(self):
        lp = LinearProgram(1)
        lp.set_objective([-1.0])
        lp.set_bounds(0, -math.inf, 3.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x[0] == 3.0

    def test_upper_bounded_var_in_constraint(self):
        lp = LinearProgram(1)
        lp.set_objective([1.0])
        lp.set_bounds(0, -math.inf, 2.0)
        lp.add_constraint([1.0], ">=", 0.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_free_vars_with_equalities(self):
        lp = LinearProgram(2)
        lp.set_objective([3.0, 1.0])
        lp.add_constraint([1.0, 1.0], "=", 2.0)
        lp.add_constraint([1.0, -1.0], "=", 0.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x == pytest.approx([1.0, 1.0], abs=1e-9)
        assert sol.objective == pytest.approx(4.0, abs=1e-9)

    def test_negative_rhs_flip(self):
        lp = LinearProgram(1)
        lp.set_objective([1.0])
        lp.add_constraint([-1.0], "<=", -2.0)
        lp.set_bounds(0, 0.0, 5.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(2.0, abs=1e-9)

    def test_fixed_variable(self):
        lp = LinearProgram(2)
        lp.set_objective([1.0, 1.0])
        lp.set_bounds(0, 2.0, 2.0)
        lp.set_bounds(1, 0.0, 4.0)
        lp.add_constraint([1.0, 1.0], ">=", 5.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.objective == pytest.approx(5.0, abs=1e-9)


class TestShiftedStart:
    """Columns whose cost prefers an infinite bound start at a finite bound
    (or 0 if free), priced at 0 in the dual phase; the primal phase then
    finishes on the true cost."""

    def test_ray_column_stops_at_its_row(self):
        lp = LinearProgram(1)
        lp.set_objective([-1.0])
        lp.set_bounds(0, 0.0, math.inf)
        lp.add_constraint([1.0], "<=", 3.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-3.0, abs=1e-9)
        assert sol.phase_steps == (0, 1)

    def test_ray_column_without_rows_is_unbounded(self):
        sol = solve(unbounded_without_rows(0.0))
        assert sol.status == LpStatus.UNBOUNDED
        assert sol.x is None and sol.objective is None

    def test_free_column_in_equality_row(self):
        # x1 = 4 - 2 * x0 with x0 in [0, 1]: the cost 3*x1 - x0 falls as x0
        # rises, so x0 = 1, x1 = 2.
        lp = LinearProgram(2)
        lp.set_objective([-1.0, 3.0])
        lp.set_bounds(0, 0.0, 1.0)
        lp.add_constraint([2.0, 1.0], "=", 4.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x == pytest.approx([1.0, 2.0], abs=1e-9)
        assert sol.objective == pytest.approx(5.0, abs=1e-9)

    def test_fixed_column_stays_fixed(self):
        # The fixed column's cost would push it either way; only x1 moves.
        lp = LinearProgram(2)
        lp.set_objective([-5.0, 1.0])
        lp.set_bounds(0, 1.5, 1.5)
        lp.set_bounds(1, 0.0, math.inf)
        lp.add_constraint([1.0, 1.0], ">=", 4.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x == pytest.approx([1.5, 2.5], abs=1e-9)
        assert sol.objective == pytest.approx(-5.0, abs=1e-9)

    def test_equality_row_with_nonzero_rhs(self):
        # Both costs prefer finite bounds, so the dual phase alone reaches
        # the optimum and the primal phase takes no step.
        lp = LinearProgram(2)
        lp.set_objective([1.0, 2.0])
        lp.set_bounds(0, 0.0, 5.0)
        lp.set_bounds(1, 0.0, 5.0)
        lp.add_constraint([1.0, 1.0], "=", 7.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x == pytest.approx([5.0, 2.0], abs=1e-9)
        assert sol.objective == pytest.approx(9.0, abs=1e-9)
        assert sol.phase_steps[1] == 0
        assert sum(sol.phase_steps) == sol.iterations


class TestCycling:
    def beale(self):
        lp = LinearProgram(4)
        lp.set_objective([-0.75, 150.0, -0.02, 6.0])
        lp.add_constraint([0.25, -60.0, -1.0 / 25.0, 9.0], "<=", 0.0)
        lp.add_constraint([0.5, -90.0, -1.0 / 50.0, 3.0], "<=", 0.0)
        lp.add_constraint([0.0, 0.0, 1.0, 0.0], "<=", 1.0)
        for j in range(4):
            lp.set_bounds(j, 0.0, math.inf)
        return lp

    def test_beale_terminates_at_optimum(self):
        # Dantzig's entering rule cycles on this program; Bland's rule must
        # terminate.  The optimum comes from vertex enumeration on a scaled
        # integer copy (rows x100, boxed far outside the active region).
        sol = solve(self.beale())
        assert sol.status == LpStatus.OPTIMAL
        rows = np.array(
            [
                [25.0, -6000.0, -4.0, 900.0],
                [50.0, -9000.0, -2.0, 300.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        limits = np.array([0.0, 0.0, 1.0])
        box_rows, box_limits = [], []
        eye = np.eye(4)
        for j in range(4):
            box_rows += [eye[j], -eye[j]]
            box_limits += [10.0, 0.0]
        oracle = vertex_optimum(
            np.array([-75.0, 15000.0, -2.0, 600.0]),
            np.vstack([rows] + box_rows),
            np.array(limits.tolist() + box_limits),
        )
        assert oracle is not None
        assert sol.objective == pytest.approx(oracle / 100.0, abs=1e-9)

    def test_pivot_limit_raises(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("eqdesign.lp"), "MAX_PIVOTS", 1)
        with pytest.raises(RuntimeError, match="pivots"):
            solve(self.beale())


class TestOptimalIsChecked:
    """An optimal point must meet the original rows and bounds; a simplex
    that drifted off them is a tool failure, not an optimum."""

    def corrupt_simplex(self, monkeypatch, shift):
        lp_module = importlib.import_module("eqdesign.lp")
        simplex = lp_module._simplex

        def drifted(tableau, basis, x, *rest):
            outcome, count = simplex(tableau, basis, x, *rest)
            x[0] += shift
            return outcome, count

        monkeypatch.setattr(lp_module, "_simplex", drifted)

    def test_missed_row_raises(self, monkeypatch):
        self.corrupt_simplex(monkeypatch, 1e-3)
        with pytest.raises(RuntimeError, match="row 0 by 0.001"):
            solve(simple_program())

    def test_left_box_raises(self, monkeypatch):
        self.corrupt_simplex(monkeypatch, -0.5)
        lp = LinearProgram(1)
        lp.set_objective([1.0])
        lp.set_bounds(0, 0.0, 1.0)
        with pytest.raises(RuntimeError, match="variable 0 by 0.5"):
            solve(lp)

    def test_drift_within_tolerance_passes(self, monkeypatch):
        self.corrupt_simplex(monkeypatch, 1e-9)
        assert solve(simple_program()).status == LpStatus.OPTIMAL

    def test_nan_point_raises(self, monkeypatch):
        # nan > FEAS_TOL is false: a check written that way passes a NaN.
        self.corrupt_simplex(monkeypatch, math.nan)
        with pytest.raises(RuntimeError, match="simplex point .* by nan"):
            solve(simple_program())


class TestOptimalDualsAreChecked:
    """An optimal point must also be priced optimal by its final basis: the
    row duals it implies must leave no nonbasic column able to lower the
    cost by more than ``FEAS_TOL``."""

    def test_nan_duals_raise(self, monkeypatch):
        lp_module = importlib.import_module("eqdesign.lp")
        simplex = lp_module._simplex

        def nan_inverse(tableau, basis, *rest):
            outcome, count = simplex(tableau, basis, *rest)
            tableau[:, tableau.shape[1] - basis.size :] = math.nan
            return outcome, count

        monkeypatch.setattr(lp_module, "_simplex", nan_inverse)
        with pytest.raises(RuntimeError, match="dual check"):
            solve(simple_program())

    def test_fixed_columns_are_exempt(self):
        # x0 is fixed at 2 while its cost would pull it up: its reduced
        # cost has the wrong sign for a column at a lower bound.
        lp = LinearProgram(2)
        lp.set_objective([-5.0, 1.0])
        lp.set_bounds(np.arange(2), [2.0, 0.0], [2.0, 4.0])
        lp.add_constraint([1.0, 1.0], ">=", 3.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x.tolist() == [2.0, 1.0]


class TestInfeasibleIsCertified:
    """An infeasible verdict must come with a row of the basis inverse that
    proves it on the original data; one that proves nothing is a tool
    failure, not a verdict."""

    def infeasible_program(self):
        lp = LinearProgram(2)
        lp.add_constraint([1.0, 1.0], ">=", 3.0)
        lp.add_constraint([1.0, 1.0], "<=", 1.0)
        for j in range(2):
            lp.set_bounds(j, 0.0, 10.0)
        return lp

    def test_zero_certificate_raises(self, monkeypatch):
        lp_module = importlib.import_module("eqdesign.lp")
        dual = lp_module._dual_simplex

        def corrupted(tableau, basis, x, *rest):
            row, count = dual(tableau, basis, x, *rest)
            if row is not None:
                tableau[row] = 0.0
            return row, count

        monkeypatch.setattr(lp_module, "_dual_simplex", corrupted)
        with pytest.raises(RuntimeError, match="certificate"):
            solve(self.infeasible_program())

    def test_nan_certificate_raises(self, monkeypatch):
        lp_module = importlib.import_module("eqdesign.lp")
        dual = lp_module._dual_simplex

        def corrupted(tableau, basis, x, *rest):
            row, count = dual(tableau, basis, x, *rest)
            if row is not None:
                tableau[row] = math.nan
            return row, count

        monkeypatch.setattr(lp_module, "_dual_simplex", corrupted)
        with pytest.raises(RuntimeError, match="certificate"):
            solve(self.infeasible_program())

    def test_verdict_reports_dual_steps_only(self):
        sol = solve(self.infeasible_program())
        assert sol.status == LpStatus.INFEASIBLE
        assert sol.phase_steps == (sol.iterations, 0)


class TestSolutionQuality:
    def test_solutions_feasible_within_tolerance(self):
        for k in range(60):
            rng = make_rng(f"lp-feas-{k}")
            case = random_lp_case(rng, int(rng.integers(2, 5)))
            sol = solve(build_lp(*case))
            if sol.status != LpStatus.OPTIMAL:
                continue
            rows, limits = inequality_form(*case[:3], *case[4:])
            assert np.all(rows @ sol.x <= limits + 1e-7)
            assert sol.objective == pytest.approx(
                float(case[3] @ sol.x), abs=1e-9
            )

    def test_no_feasible_point_beats_optimum(self):
        exercised = 0
        for k in range(80):
            rng = make_rng(f"lp-weak-{k}")
            case = random_lp_case(rng, int(rng.integers(2, 5)))
            coeffs, rels, rhs, cost, lo, hi = case
            if "=" in rels:
                continue
            sol = solve(build_lp(*case))
            if sol.status != LpStatus.OPTIMAL:
                continue
            points = rng.uniform(lo, hi, size=(200, len(cost)))
            sat_le = np.ones(200, dtype=bool)
            for row, rel, b in zip(coeffs, rels, rhs):
                vals = points @ row
                sat_le &= vals <= b + 1e-9 if rel == "<=" else vals >= b - 1e-9
            if not np.any(sat_le):
                continue
            assert np.min(points[sat_le] @ cost) >= sol.objective - 1e-7
            exercised += 1
        assert exercised >= 20

    def test_deterministic_resolve(self):
        for k in range(20):
            a = solve(self.random_program(k))
            b = solve(self.random_program(k))
            assert a.status == b.status and a.iterations == b.iterations
            if a.status == LpStatus.OPTIMAL:
                assert a.x.tobytes() == b.x.tobytes()
                return
        pytest.fail("no optimal program found")

    def random_program(self, k):
        rng = make_rng(f"lp-deterministic-{k}")
        return build_lp(*random_lp_case(rng, 4))


class TestOracleBattery:
    @pytest.mark.parametrize("num_vars", [2, 3, 4])
    def test_matches_vertex_enumeration(self, num_vars):
        for k in range(50):
            rng = make_rng(f"lp-battery-{num_vars}-{k}")
            case = random_lp_case(rng, num_vars)
            sol = solve(build_lp(*case))
            coeffs, rels, rhs, cost, lo, hi = case
            rows, limits = inequality_form(coeffs, rels, rhs, lo, hi)
            oracle = vertex_optimum(cost, rows, limits)
            # Finite boxes rule out unbounded rays.
            if oracle is None:
                assert sol.status == LpStatus.INFEASIBLE, (num_vars, k)
            else:
                assert sol.status == LpStatus.OPTIMAL, (num_vars, k)
                assert sol.objective == pytest.approx(oracle, abs=1e-6)


class TestPulledOracleBattery:
    """:class:`TestOracleBattery` on programs whose negative costs pull
    their columns toward +inf, so the dual phase starts from row prices."""

    def test_matches_vertex_enumeration(self):
        check_pulled_battery("lp-pulled", 50)


class TestLowestIndexFallback:
    def test_lowest_index_rules_from_the_first_step(self, monkeypatch):
        # With the run length at 0 both phases use their lowest-index rules
        # on every step; they must still reach the true optimum.  The pulled
        # columns start shifted, so the primal phase has work to do.
        lp_module = importlib.import_module("eqdesign.lp")
        monkeypatch.setattr(lp_module, "BLAND_AFTER", 0)
        assert check_pulled_battery("lp-lowest-index", 30).min() > 0


class TestUnboundedIsCertified:
    """An unbounded verdict must come with a ray that proves it on the
    original data; one that proves nothing is a tool failure."""

    def record_rays(self, monkeypatch):
        lp_module = importlib.import_module("eqdesign.lp")
        simplex = lp_module._simplex
        rays = []

        def recording(*args):
            ray, count = simplex(*args)
            rays.append(ray)
            return ray, count

        monkeypatch.setattr(lp_module, "_simplex", recording)
        return rays

    def test_every_unbounded_verdict_carries_a_ray(self, monkeypatch):
        rays = self.record_rays(monkeypatch)
        programs = [
            unbounded_by_free_row_column(),
            unbounded_without_rows(-math.inf),
            unbounded_without_rows(0.0),
        ]
        for k in range(100):
            case = random_lp_case(make_rng(f"lp-ray-{k}"), 3)
            programs.append(pulled_program(case, box_rows=False))
        unbounded = 0
        for lp in programs:
            sol = solve(lp)
            if sol.status != LpStatus.UNBOUNDED:
                continue
            unbounded += 1
            d = rays[-1][: lp.num_vars]
            for con in lp.constraints:
                lhs = con.coeffs @ d
                if con.relation != ">=":
                    assert lhs <= 1e-9
                if con.relation != "<=":
                    assert lhs >= -1e-9
            assert np.all(d[np.isfinite(lp.lower)] >= -1e-9)
            assert np.all(d[np.isfinite(lp.upper)] <= 1e-9)
            assert lp.objective @ d < 0.0
        assert unbounded >= 15

    def test_bad_ray_raises(self, monkeypatch):
        lp_module = importlib.import_module("eqdesign.lp")
        simplex = lp_module._simplex

        def reversed_ray(*args):
            ray, count = simplex(*args)
            return -ray, count

        monkeypatch.setattr(lp_module, "_simplex", reversed_ray)
        with pytest.raises(RuntimeError, match="unbounded ray"):
            solve(unbounded_by_free_row_column())

    @pytest.mark.parametrize(
        "program",
        [
            # The ray moves the free column x0, which has a row.
            unbounded_by_free_row_column,
            # No row; x0 has a finite lower bound.
            lambda: unbounded_without_rows(0.0),
        ],
    )
    def test_nan_ray_raises(self, monkeypatch, program):
        lp_module = importlib.import_module("eqdesign.lp")
        simplex = lp_module._simplex

        def nan_ray(*args):
            ray, count = simplex(*args)
            ray[np.flatnonzero(ray)[0]] = math.nan
            return ray, count

        monkeypatch.setattr(lp_module, "_simplex", nan_ray)
        with pytest.raises(RuntimeError, match="unbounded ray leaves .* by nan"):
            solve(program())


class TestValidation:
    def test_rejects_empty_program(self):
        with pytest.raises(LpInputError):
            LinearProgram(0)

    def test_rejects_bad_objective(self):
        lp = LinearProgram(2)
        with pytest.raises(LpInputError):
            lp.set_objective([1.0])
        with pytest.raises(LpInputError):
            lp.set_objective([1.0, math.inf])

    def test_rejects_bad_bounds(self):
        lp = LinearProgram(2)
        with pytest.raises(LpInputError):
            lp.set_bounds(2, 0.0, 1.0)
        with pytest.raises(LpInputError):
            lp.set_bounds(0, math.nan, 1.0)
        with pytest.raises(LpInputError):
            lp.set_bounds(0, 2.0, 1.0)

    def test_rejects_boxes_with_no_finite_point(self):
        # A box at +inf or at -inf is not empty by lower > upper, yet no
        # point lies in it; the array path validates the same way.
        lp = LinearProgram(2)
        for lo, hi in ((math.inf, math.inf), (-math.inf, -math.inf)):
            with pytest.raises(LpInputError, match="no finite point"):
                lp.set_bounds(1, lo, hi)
            with pytest.raises(LpInputError, match="variable 1 hold no finite"):
                lp.set_bounds(np.arange(2), [0.0, lo], [1.0, hi])
        # A rejected call changes no bound.
        assert lp.lower.tolist() == [-math.inf] * 2
        assert lp.upper.tolist() == [math.inf] * 2

    def test_rejects_bad_bound_arrays(self):
        lp = LinearProgram(3)
        with pytest.raises(LpInputError, match="out of range"):
            lp.set_bounds(np.array([0, 3]), 0.0, 1.0)
        with pytest.raises(LpInputError, match="not an integer"):
            lp.set_bounds(np.array([0.0, 1.0]), 0.0, 1.0)
        with pytest.raises(LpInputError, match="do not fit"):
            lp.set_bounds(np.arange(2), [0.0, 0.0, 0.0], 1.0)
        with pytest.raises(LpInputError, match="no finite point"):
            lp.set_bounds(np.arange(3), [0.0, 2.0, math.nan], 1.0)

    def test_rejects_bad_constraints(self):
        lp = LinearProgram(2)
        with pytest.raises(LpInputError):
            lp.add_constraint([1.0, 1.0], "<", 1.0)
        with pytest.raises(LpInputError):
            lp.add_constraint([1.0, 1.0], "<=", math.inf)
        with pytest.raises(LpInputError):
            lp.add_constraint([math.nan, 1.0], "<=", 1.0)


class TestStackedCalls:
    """A stack of rows or an index array of bounds gives the same program as
    one call per row or per variable."""

    def test_same_program_as_one_call_each(self):
        rng = make_rng("lp-stacked")
        coeffs = rng.normal(size=(5, 4))
        # x = 0 lies in the box and meets every row.
        rhs = -1.0 - rng.random(5)
        lo, hi = -rng.random(4), rng.random(4)
        cost = rng.normal(size=4)
        one, stacked = LinearProgram(4), LinearProgram(4)
        for j in range(4):
            one.set_bounds(j, lo[j], hi[j])
        for row, b in zip(coeffs, rhs):
            one.add_constraint(row, ">=", b)
        one.add_constraint(coeffs[0], "=", 0.0)
        stacked.set_bounds(np.arange(4), lo, hi)
        stacked.add_constraint(coeffs, ">=", rhs)
        stacked.add_constraint(coeffs[:1], "=", 0.0)
        for lp in (one, stacked):
            lp.set_objective(cost)
        assert stacked.dump() == one.dump()
        for a, b in zip(stacked.constraints, one.constraints):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
            assert (a.relation, a.rhs) == (b.relation, b.rhs)
        sol, ref = solve(stacked), solve(one)
        assert sol.status == LpStatus.OPTIMAL and sol.iterations > 0
        assert sol.x.tobytes() == ref.x.tobytes()

    def test_rejects_bad_stacks(self):
        lp = LinearProgram(2)
        with pytest.raises(LpInputError, match="does not fit"):
            lp.add_constraint(np.ones((3, 2)), "<=", [1.0, 2.0])
        with pytest.raises(LpInputError, match="shape"):
            lp.add_constraint(np.ones((3, 3)), "<=", 1.0)
        with pytest.raises(LpInputError, match="rhs must be finite"):
            lp.add_constraint(np.ones((2, 2)), "<=", [1.0, math.nan])
        assert lp.constraints == []


class TestDump:
    def test_stable_rendering(self):
        lp = LinearProgram(2)
        lp.set_objective([1.0, -2.5])
        lp.add_constraint([1.0, 1.0], "<=", 1.0)
        lp.add_constraint([0.25, -1.0], ">=", -0.5)
        lp.set_bounds(0, 0.0, 2.0)
        assert lp.dump() == "\n".join(
            [
                "minimize +1*x0 -2.5*x1",
                "subject to",
                "  +1*x0 +1*x1 <= 1",
                "  +0.25*x0 -1*x1 >= -0.5",
                "bounds",
                "  0 <= x0 <= 2",
                "  -inf <= x1 <= inf",
            ]
        )
