"""Simplex solver tests: statuses, bounds handling, cycling, oracle battery.

Randomized programs use integer data and finite boxes so exhaustive vertex
enumeration is an exact independent oracle; see conftest.vertex_optimum.
"""

import importlib
import math

import numpy as np
import pytest

from eqdesign import (
    Concept,
    CostKind,
    CostSpec,
    DesignConfig,
    JointMixedStrategy,
    LinearProgram,
    LpInputError,
    LpStatus,
    build_nfg_lp,
    gamma_cce,
    solve,
)

from conftest import (
    build_lp,
    inequality_form,
    installable_stage,
    make_rng,
    random_lp_case,
    vertex_optimum,
)


def no_rows(num_vars):
    """The rows, relations and rhs of a program with no row."""
    return np.empty((0, num_vars)), [], []


def simple_program():
    return LinearProgram([-1.0, -1.0], [[1.0, 1.0]], "<=", 1.0, 0.0)


def infeasible_program():
    rows = [[1.0, 1.0], [1.0, 1.0]]
    return LinearProgram(np.zeros(2), rows, [">=", "<="], [3.0, 1.0], 0.0, 10.0)


def two_row_program(rows=((1.0, 1.0), (0.25, -1.0))):
    return LinearProgram(
        [1.0, -2.5], rows, ["<=", ">="], [1.0, -0.5], [0.0, -math.inf], [2.0, math.inf]
    )


def cce_social_program():
    """A 3x3 CCE social design program: 6 rows over 18 rewards, whose dual
    phase takes 6 steps and whose primal phase takes none."""
    sigma = JointMixedStrategy(
        installable_stage(make_rng("dual-cap"), (3, 3), allow_pure=False)
    )
    config = DesignConfig(slack=0.5 * gamma_cce(sigma).value, bound=1.0)
    cost = CostSpec(CostKind.SOCIAL_WELFARE)
    return build_nfg_lp(sigma, Concept.CCE, cost, config)[0]


def unbounded_by_free_row_column():
    return LinearProgram(
        [-1.0, 0.0], [[0.0, 1.0]], "<=", 1.0, [-math.inf, 0.0], [math.inf, 1.0]
    )


def unbounded_without_rows(lower):
    """One column and no row; its cost pulls it toward -inf when ``lower``
    is -inf, else toward +inf."""
    cost = [1.0 if lower == -math.inf else -1.0]
    return LinearProgram(cost, *no_rows(1), lower)


def pulled_program(case, box_rows=True):
    """``build_lp(*case)`` with each negative-cost column's upper bound
    lifted to +inf, so that its cost pulls it there; ``box_rows`` gives the
    old upper bound back as a row, which keeps the vertex oracle exact."""
    coeffs, rels, rhs, cost, lo, hi = case
    pulled = np.flatnonzero(cost < 0.0)
    if box_rows:
        coeffs = np.vstack([coeffs, np.eye(len(cost))[pulled]])
        rels = list(rels) + ["<="] * pulled.size
        rhs = np.concatenate([rhs, hi[pulled]])
    return build_lp(coeffs, rels, rhs, cost, lo, np.where(cost < 0.0, math.inf, hi))


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
        sol = solve(infeasible_program())
        assert sol.status == LpStatus.INFEASIBLE
        assert sol.x is None and sol.objective is None

    def test_unbounded(self):
        sol = solve(unbounded_by_free_row_column())
        assert sol.status == LpStatus.UNBOUNDED

    def test_degenerate_duplicate_rows(self):
        lp = LinearProgram([-1.0], [[1.0], [1.0]], "<=", 1.0, 0.0)
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)


class TestBounds:
    def test_constraint_free_program_hits_lower_bound(self):
        sol = solve(LinearProgram([1.0], *no_rows(1), -3.0))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.iterations == 0
        assert sol.x[0] == -3.0

    def test_constraint_free_program_unbounded(self):
        sol = solve(unbounded_without_rows(-math.inf))
        assert sol.status == LpStatus.UNBOUNDED

    def test_constraint_free_zero_objective(self):
        sol = solve(LinearProgram(np.zeros(2), *no_rows(2)))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == 0.0

    def test_upper_bound_only(self):
        sol = solve(LinearProgram([-1.0], *no_rows(1), -math.inf, 3.0))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x[0] == 3.0

    def test_upper_bounded_var_in_constraint(self):
        sol = solve(LinearProgram([1.0], [[1.0]], ">=", 0.0, -math.inf, 2.0))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_free_vars_with_equalities(self):
        lp = LinearProgram([3.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], "=", [2.0, 0.0])
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x == pytest.approx([1.0, 1.0], abs=1e-9)
        assert sol.objective == pytest.approx(4.0, abs=1e-9)

    def test_negative_rhs_flip(self):
        sol = solve(LinearProgram([1.0], [[-1.0]], "<=", -2.0, 0.0, 5.0))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(2.0, abs=1e-9)

    def test_fixed_variable(self):
        lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], ">=", 5.0, [2.0, 0.0], [2.0, 4.0])
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.objective == pytest.approx(5.0, abs=1e-9)


class TestShiftedStart:
    """Columns whose cost prefers an infinite bound start at a finite bound
    (or 0 if free), priced at 0 in the dual phase; the primal phase then
    finishes on the true cost."""

    def test_ray_column_stops_at_its_row(self):
        sol = solve(LinearProgram([-1.0], [[1.0]], "<=", 3.0, 0.0))
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
        lp = LinearProgram(
            [-1.0, 3.0], [[2.0, 1.0]], "=", 4.0, [0.0, -math.inf], [1.0, math.inf]
        )
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x == pytest.approx([1.0, 2.0], abs=1e-9)
        assert sol.objective == pytest.approx(5.0, abs=1e-9)

    def test_fixed_column_stays_fixed(self):
        # The fixed column's cost would push it either way; only x1 moves.
        lp = LinearProgram(
            [-5.0, 1.0], [[1.0, 1.0]], ">=", 4.0, [1.5, 0.0], [1.5, math.inf]
        )
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x == pytest.approx([1.5, 2.5], abs=1e-9)
        assert sol.objective == pytest.approx(-5.0, abs=1e-9)

    def test_equality_row_with_nonzero_rhs(self):
        # Both costs prefer finite bounds, so the dual phase alone reaches
        # the optimum and the primal phase takes no step.
        sol = solve(LinearProgram([1.0, 2.0], [[1.0, 1.0]], "=", 7.0, 0.0, 5.0))
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x == pytest.approx([5.0, 2.0], abs=1e-9)
        assert sol.objective == pytest.approx(9.0, abs=1e-9)
        assert sol.phase_steps[1] == 0
        assert sum(sol.phase_steps) == sol.iterations


class TestCycling:
    def beale(self):
        rows = [
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        return LinearProgram(
            [-0.75, 150.0, -0.02, 6.0], rows, "<=", [0.0, 0.0, 1.0], 0.0
        )

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

    def test_dual_pivot_limit_raises(self, monkeypatch):
        lp = cce_social_program()
        assert solve(lp).phase_steps == (6, 0)
        monkeypatch.setattr(importlib.import_module("eqdesign.lp"), "MAX_PIVOTS", 1)
        with pytest.raises(RuntimeError, match="dual simplex exceeded 1 pivots"):
            solve(lp)


class TestCells:
    """``LpSolution.cells``: each pivot rewrites the whole m x (n+m)
    tableau, and a bound flip rewrites none of it."""

    def test_dual_pivots(self):
        lp = cce_social_program()
        one, two = solve(lp), solve(lp)
        assert one.phase_steps == (6, 0)
        assert one.cells == (6 * 6 * (18 + 6), 0)
        assert two.cells == one.cells and two.phase_steps == one.phase_steps

    def test_bound_flips_update_no_cell(self):
        # x1's cost pulls it up without end: two of the primal phase's
        # three steps move x0 and x2 to their other bounds, and one pivots
        # x1 into the row, rewriting a 1 x (3 + 1) tableau.
        lp = LinearProgram(
            [2.0, -1.0, 2.0], [[-4.0, 1.0, 4.0]], "<=", 4.0, -2.0,
            [1.0, math.inf, 3.0],
        )
        sol = solve(lp)
        assert sol.x.tolist() == [1.0, 16.0, -2.0]
        assert sol.phase_steps == (0, 3)
        assert sol.cells == (0, 1 * (3 + 1))

    def test_infeasible_and_unbounded(self):
        sol = solve(infeasible_program())
        assert sol.status == LpStatus.INFEASIBLE
        assert sol.cells == (sol.phase_steps[0] * 2 * (2 + 2), 0)
        sol = solve(unbounded_by_free_row_column())
        assert sol.status == LpStatus.UNBOUNDED
        assert sol.cells == (0, 0)


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
        lp = LinearProgram([1.0], *no_rows(1), 0.0, 1.0)
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
        lp = LinearProgram([-5.0, 1.0], [[1.0, 1.0]], ">=", 3.0, [2.0, 0.0], [2.0, 4.0])
        sol = solve(lp)
        assert sol.status == LpStatus.OPTIMAL
        assert sol.x.tolist() == [2.0, 1.0]


class TestInfeasibleIsCertified:
    """An infeasible verdict must come with a row of the basis inverse that
    proves it on the original data; one that proves nothing is a tool
    failure, not a verdict."""

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
            solve(infeasible_program())

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
            solve(infeasible_program())

    def test_verdict_reports_dual_steps_only(self):
        sol = solve(infeasible_program())
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
            lhs = lp.rows @ d
            assert np.all(lhs[lp.relations != ">="] <= 1e-9)
            assert np.all(lhs[lp.relations != "<="] >= -1e-9)
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
        with pytest.raises(LpInputError, match="at least one variable"):
            LinearProgram([], *no_rows(0))

    def test_rejects_bad_objective(self):
        with pytest.raises(LpInputError, match="shape"):
            LinearProgram([1.0], [[1.0, 1.0]], "<=", 1.0)
        with pytest.raises(LpInputError, match="shape"):
            LinearProgram([[1.0, 1.0]], *no_rows(2))
        with pytest.raises(LpInputError, match="non-finite"):
            LinearProgram([1.0, math.inf], *no_rows(2))

    def test_rejects_bad_bounds(self):
        with pytest.raises(LpInputError, match="does not fit"):
            LinearProgram([1.0, 1.0], *no_rows(2), [0.0, 0.0, 0.0], 1.0)
        with pytest.raises(LpInputError, match="does not fit"):
            LinearProgram([1.0, 1.0], *no_rows(2), 0.0, [[1.0, 1.0]])
        with pytest.raises(LpInputError, match="variable 0 hold no finite point"):
            LinearProgram([1.0, 1.0], *no_rows(2), [math.nan, 0.0], 1.0)
        with pytest.raises(LpInputError, match=r"\[2.0, 1.0\] of variable 0"):
            LinearProgram([1.0, 1.0], *no_rows(2), 2.0, 1.0)

    def test_rejects_boxes_with_no_finite_point(self):
        # A box at +inf or at -inf is not empty by lower > upper, yet no
        # point lies in it; one bound for all validates the same way.
        for lo, hi in ((math.inf, math.inf), (-math.inf, -math.inf)):
            with pytest.raises(LpInputError, match="variable 0 hold no finite"):
                LinearProgram([1.0, 1.0], *no_rows(2), lo, hi)
            with pytest.raises(LpInputError, match="variable 1 hold no finite"):
                LinearProgram([1.0, 1.0], *no_rows(2), [0.0, lo], [1.0, hi])

    def test_rejects_bad_constraints(self):
        with pytest.raises(LpInputError, match="unknown relation '<'"):
            LinearProgram([1.0, 1.0], [[1.0, 1.0]], "<", 1.0)
        with pytest.raises(LpInputError, match="unknown relation '=>'"):
            LinearProgram([1.0, 1.0], np.ones((2, 2)), ["<=", "=>"], 1.0)
        with pytest.raises(LpInputError, match="rhs must be finite"):
            LinearProgram([1.0, 1.0], [[1.0, 1.0]], "<=", math.inf)
        with pytest.raises(LpInputError, match="non-finite"):
            LinearProgram([1.0, 1.0], [[math.nan, 1.0]], "<=", 1.0)


class TestOneValueForAll:
    """A relation, rhs or bound given once holds for every row or variable,
    as if it were given for each."""

    def test_same_program_as_one_value_each(self):
        rng = make_rng("lp-stacked")
        coeffs = rng.normal(size=(5, 4))
        # x = 0 lies in the box and meets every row.
        cost = rng.normal(size=4)
        shared = LinearProgram(cost, coeffs, ">=", 0.0, -0.5, 0.5)
        each = LinearProgram(
            cost, coeffs, [">="] * 5, [0.0] * 5, [-0.5] * 4, [0.5] * 4
        )
        assert shared.dump() == each.dump()
        for name in ("objective", "rows", "relations", "rhs", "lower", "upper"):
            a, b = getattr(shared, name), getattr(each, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        sol, ref = solve(shared), solve(each)
        assert sol.status == LpStatus.OPTIMAL and sol.iterations > 0
        assert sol.x.tobytes() == ref.x.tobytes()

    def test_rejects_bad_stacks(self):
        fit = r"rhs: shape \(2,\) does not fit \(3,\)"
        with pytest.raises(LpInputError, match=fit):
            LinearProgram([1.0, 1.0], np.ones((3, 2)), "<=", [1.0, 2.0])
        with pytest.raises(LpInputError, match="relations: shape"):
            LinearProgram([1.0, 1.0], np.ones((3, 2)), ["<=", ">="], 1.0)
        with pytest.raises(LpInputError, match="shape"):
            LinearProgram([1.0, 1.0], np.ones((3, 3)), "<=", 1.0)
        with pytest.raises(LpInputError, match="rhs must be finite"):
            LinearProgram([1.0, 1.0], np.ones((2, 2)), "<=", [1.0, math.nan])


class TestRecord:
    def test_arrays_are_read_only_copies_that_solve_leaves(self):
        rows = np.array([[1.0, 1.0], [0.25, -1.0]])
        lp = two_row_program(rows)
        arrays = (lp.objective, lp.rows, lp.relations, lp.rhs, lp.lower, lp.upper)
        before = [a.copy() for a in arrays]
        assert not np.shares_memory(lp.rows, rows)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
        assert solve(lp).status == LpStatus.OPTIMAL
        for arr, old in zip(arrays, before):
            assert arr.tobytes() == old.tobytes()

    def test_constraints_view_the_rows(self):
        lp = two_row_program()
        cons = lp.constraints
        assert np.array_equal([c.coeffs for c in cons], lp.rows)
        assert [c.relation for c in cons] == ["<=", ">="]
        assert [c.rhs for c in cons] == [1.0, -0.5]
        assert all(np.shares_memory(c.coeffs, lp.rows) for c in cons)


class TestDump:
    def test_stable_rendering(self):
        assert two_row_program().dump() == "\n".join(
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
