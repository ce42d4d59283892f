"""Self-contained dense linear programming, no external solver.

Minimization over box-bounded variables with <=, >=, and = rows, solved by
a bounded-variable simplex on a dense tableau with no artificial columns.
Each row gets one logical column ``s`` with ``a @ x + s = b``: ``s >= 0`` on
<=, ``s <= 0`` on >=, ``s = 0`` on =.  Every column keeps its own bounds,
and a nonbasic column sits at one of them (at 0 if it is free).

A column is pulled when its cost pulls it toward an infinite bound: a
negative cost with no upper bound, or a positive cost with no lower bound.
Only a program with a pulled column can be unbounded.  Each pulled column
hands its cost to its rows as row prices, ``y = a[:, j] * cost[j] /
|a[:, j]|^2`` summed over the pulled columns and clipped to the sign each
row's relation allows, and the first phase prices the columns at ``cost -
y @ a``.  An egalitarian design's first phase thus minimizes the social
cost over the number of players, and a max-gap design's maximizes the
average margin.  With no pulled column the price is the cost.

The solve starts from the all-logical basis with each column at the bound
its price prefers.  A column whose preferred bound is infinite starts at its
finite bound, or at 0 if free, and is priced at 0 in the first phase, so
the start is dual feasible.  The dual phase then brings every basic column
within its bounds on this price, and the primal phase minimizes the true
costs from the basis it leaves; it takes no step when no column is
pulled.

Dual phase: the leaving row has the largest bound violation and the
entering column comes from a Harris two-pass ratio test on the reduced
costs; a run of ``BLAND_AFTER`` steps without progress switches both
choices to the lowest index.  A row no column can repair makes the program
infeasible, and its row of the basis inverse is checked as a certificate on
the original data.  Primal phase: the entering column is the eligible one
with the largest reduced cost in magnitude and the leaving row comes from a
Harris two-pass ratio test; after a run of ``BLAND_AFTER`` pivots that do
not move, both become the lowest index (Bland's rule).  Both tests use
``PIVOT_TOL``.  An entering column that no row limits and whose bound is
infinite makes the program unbounded; the ray it moves along is checked on
the original data.

``iterations`` counts pivots and bound flips, and ``phase_steps`` splits
them between the two phases; a phase that takes more than ``MAX_PIVOTS`` of
them raises ``RuntimeError``.  An optimal point is checked against the
original rows and bounds within ``FEAS_TOL`` before it is returned, and a
miss raises ``RuntimeError``, as does an infeasibility certificate or a
ray that fails.  Determinism: identical inputs pivot identically, so
solutions are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# A tableau entry this small is treated as zero when selecting pivots.
PIVOT_TOL = 1e-9
# Rows and bounds are checked to this tolerance, and an infeasibility
# certificate or an unbounded ray must clear it.
FEAS_TOL = 1e-7
# Either simplex phase taking more steps than this is a tool failure.
MAX_PIVOTS = 200_000
# Steps in a row without progress before either phase switches to its
# lowest-index rules, which it keeps until a step makes progress again.
BLAND_AFTER = 10

_RELATIONS = ("<=", ">=", "=")


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpInputError(ValueError):
    """Malformed program: bad shapes, non-finite data, unknown relations."""


@dataclass(frozen=True)
class Constraint:
    coeffs: np.ndarray
    relation: str
    rhs: float


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int
    # Steps of the dual phase and of the primal phase; they sum to iterations.
    phase_steps: tuple[int, int]


class LinearProgram:
    """Builder for a minimization program over box-bounded variables.

    Variables default to free (-inf, +inf); the objective defaults to zero
    (pure feasibility).
    """

    def __init__(self, num_vars: int):
        if num_vars < 1:
            raise LpInputError("program needs at least one variable")
        self.num_vars = num_vars
        self.objective = np.zeros(num_vars)
        self.constraints: list[Constraint] = []
        self.lower = np.full(num_vars, -math.inf)
        self.upper = np.full(num_vars, math.inf)

    def set_objective(self, coeffs) -> None:
        arr = self._vector(coeffs, "objective")
        self.objective = arr

    def set_bounds(self, var: int, lower: float, upper: float) -> None:
        if not 0 <= var < self.num_vars:
            raise LpInputError(f"variable {var} out of range")
        if math.isnan(lower) or math.isnan(upper):
            raise LpInputError("bounds may not be NaN")
        if lower > upper:
            raise LpInputError(f"empty bound interval [{lower}, {upper}]")
        self.lower[var] = lower
        self.upper[var] = upper

    def add_constraint(self, coeffs, relation: str, rhs: float) -> None:
        if relation not in _RELATIONS:
            raise LpInputError(f"unknown relation {relation!r}")
        arr = self._vector(coeffs, "constraint")
        if not math.isfinite(rhs):
            raise LpInputError("constraint rhs must be finite")
        self.constraints.append(Constraint(arr, relation, float(rhs)))

    def _vector(self, coeffs, what: str) -> np.ndarray:
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (self.num_vars,):
            raise LpInputError(
                f"{what} has shape {arr.shape}, expected ({self.num_vars},)"
            )
        if not np.all(np.isfinite(arr)):
            raise LpInputError(f"{what} has non-finite coefficients")
        return arr.copy()

    def dump(self) -> str:
        """Human-readable rendering over variables ``x0, x1, ...``, stable
        across runs."""
        names = [f"x{j}" for j in range(self.num_vars)]

        def term(c: float, name: str) -> str:
            return f"{c:+g}*{name}"

        lines = [
            "minimize "
            + " ".join(term(c, n) for c, n in zip(self.objective, names))
        ]
        lines.append("subject to")
        for con in self.constraints:
            lhs = " ".join(term(c, n) for c, n in zip(con.coeffs, names))
            lines.append(f"  {lhs} {con.relation} {con.rhs:g}")
        lines.append("bounds")
        for j, name in enumerate(names):
            lines.append(f"  {self.lower[j]:g} <= {name} <= {self.upper[j]:g}")
        return "\n".join(lines)


def _simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    cost: np.ndarray,
) -> tuple[Optional[np.ndarray], int]:
    """Minimize ``cost @ x`` in place from a basis whose columns are all
    within their bounds; returns (ray, steps taken), with ``ray`` None at an
    optimum, else a direction along which the cost falls without end.

    Each step either moves the entering column to its other bound (a bound
    flip) or pivots it into the basis.  The entering column is the eligible
    one with the largest reduced cost in magnitude.  The leaving row comes
    from a Harris two-pass ratio test: the longest step that keeps every
    basic column within its bounds widened by ``PIVOT_TOL``, then the
    largest pivot among the rows that limit it.  After ``BLAND_AFTER``
    pivots in a row that do not move, the entering column is the lowest
    eligible index and the leaving row the limiting one with the lowest
    basic index (Bland's rule), until a step moves again.  When no row
    limits an entering column with an infinite bound, the ray moves that
    column by one unit and each basic column by ``-direction`` times its
    tableau entry.
    """
    crow = cost - cost[basis] @ tableau
    count = stalled = 0
    while True:
        crow[basis] = 0.0
        eligible = np.flatnonzero(
            ((crow < -PIVOT_TOL) & (x < upper))
            | ((crow > PIVOT_TOL) & (x > lower))
        )
        if eligible.size == 0:
            return None, count
        if stalled >= BLAND_AFTER:
            col = int(eligible[0])
        else:
            col = int(eligible[np.argmax(np.abs(crow[eligible]))])
        direction = 1.0 if crow[col] < 0.0 else -1.0
        # Basic values move by -step * alpha as the entering column moves.
        alpha = direction * tableau[:, col]
        values = x[basis]
        room = np.where(
            alpha > 0.0, values - lower[basis], upper[basis] - values
        )
        size = np.abs(alpha)
        rows = np.flatnonzero(size > PIVOT_TOL)
        ratios = room[rows] / size[rows]
        longest = ((room[rows] + PIVOT_TOL) / size[rows]).min(initial=math.inf)
        span = upper[col] - lower[col]
        if span <= longest:
            if math.isinf(span):
                ray = np.zeros(x.size)
                ray[basis] = -alpha
                ray[col] = direction
                return ray, count
            x[col] = upper[col] if direction > 0.0 else lower[col]
            x[basis] -= span * alpha
            stalled = 0
        else:
            limiting = rows[ratios <= longest]
            if stalled >= BLAND_AFTER:
                row = int(limiting[np.argmin(basis[limiting])])
            else:
                row = int(limiting[np.argmax(size[limiting])])
            leaving = basis[row]
            bound = lower[leaving] if alpha[row] > 0.0 else upper[leaving]
            step = max(room[row] / size[row], 0.0)
            stalled = stalled + 1 if step == 0.0 else 0
            _step(tableau, crow, basis, x, row, col, direction * step, bound)
        count += 1
        if count > MAX_PIVOTS:
            raise RuntimeError(f"simplex exceeded {MAX_PIVOTS} pivots")


def _dual_simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    cost: np.ndarray,
) -> tuple[Optional[int], int]:
    """Bring every basic column within its bounds in place, keeping the
    reduced costs of ``cost`` dual feasible; returns (row, steps taken), with
    ``row`` None on success, else a row no nonbasic column can repair.

    The leaving row has the largest bound violation; the entering column
    comes from a Harris two-pass ratio test on the reduced costs: the
    longest dual step that keeps every reduced cost on its side of zero
    within ``PIVOT_TOL``, then the largest pivot among the columns that
    limit it.  A step makes progress when it moves the reduced costs (it is
    not dual degenerate) or brings the total violation below its lowest so
    far.  After ``BLAND_AFTER`` steps in a row without progress, the leaving
    row is the infeasible one with the lowest basic index and the entering
    column the lowest index among those that limit the step.  A cycle
    repeats its bases, so after one turn it makes no progress and falls
    under these rules.
    """
    crow = cost - cost[basis] @ tableau
    count = stalled = 0
    least = math.inf
    while True:
        values = x[basis]
        below = lower[basis] - values
        violation = np.maximum(below, values - upper[basis])
        infeasible = np.flatnonzero(violation > PIVOT_TOL)
        if infeasible.size == 0:
            return None, count
        total = violation[infeasible].sum()
        if total < least - PIVOT_TOL:
            least, stalled = total, 0
        bland = stalled >= BLAND_AFTER
        if bland:
            row = int(infeasible[np.argmin(basis[infeasible])])
        else:
            row = int(infeasible[np.argmax(violation[infeasible])])
        leaving = basis[row]
        rising = below[row] > 0.0
        # The leaving value moves by -move * tableau[row, col]; alpha < 0
        # marks columns that repair it by rising, alpha > 0 by falling.
        alpha = tableau[row] if rising else -tableau[row]
        eligible = np.flatnonzero(
            ((alpha < -PIVOT_TOL) & (x < upper))
            | ((alpha > PIVOT_TOL) & (x > lower))
        )
        if eligible.size == 0:
            return row, count
        size = np.abs(alpha[eligible])
        # How far each reduced cost may travel before it changes sign.
        room = np.where(alpha[eligible] < 0.0, crow[eligible], -crow[eligible])
        longest = ((room + PIVOT_TOL) / size).min()
        ties = np.flatnonzero(room / size <= longest)
        pick = int(ties[0] if bland else ties[np.argmax(size[ties])])
        col = int(eligible[pick])
        stalled = stalled + 1 if room[pick] <= PIVOT_TOL else 0
        bound = lower[leaving] if rising else upper[leaving]
        move = (x[leaving] - bound) / tableau[row, col]
        _step(tableau, crow, basis, x, row, col, move, bound)
        count += 1
        if count > MAX_PIVOTS:
            raise RuntimeError(f"dual simplex exceeded {MAX_PIVOTS} pivots")


def _step(
    tableau: np.ndarray,
    crow: np.ndarray,
    basis: np.ndarray,
    x: np.ndarray,
    row: int,
    col: int,
    move: float,
    bound: float,
) -> None:
    """Move column ``col`` by ``move``, carrying the basic columns along,
    set the column leaving ``row`` to ``bound`` and pivot ``col`` into it."""
    leaving = basis[row]
    x[col] += move
    x[basis] -= move * tableau[:, col]
    x[leaving] = bound
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    crow -= crow[col] * tableau[row]
    basis[row] = col


def _row_misses(lhs: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """How far each entry of ``lhs`` lies on the wrong side of 0 for its
    row's relation."""
    return np.select([rel == "<=", rel == ">="], [lhs, -lhs], abs(lhs))


def _check_point(
    lp: LinearProgram,
    a: np.ndarray,
    b: np.ndarray,
    rel: np.ndarray,
    x: np.ndarray,
) -> None:
    """Raise unless ``x`` meets every row ``a @ x rel b`` and every bound of
    ``lp`` within ``FEAS_TOL``."""
    miss = _row_misses(a @ x - b, rel)
    if miss.size and miss.max() > FEAS_TOL:
        row = int(np.argmax(miss))
        raise RuntimeError(f"simplex point misses row {row} by {miss[row]:.3g}")
    off = np.maximum(lp.lower - x, x - lp.upper)
    if off.max() > FEAS_TOL:
        var = int(np.argmax(off))
        raise RuntimeError(
            f"simplex point leaves the box of variable {var} by {off[var]:.3g}"
        )


def _check_ray(
    lp: LinearProgram, a: np.ndarray, rel: np.ndarray, d: np.ndarray
) -> None:
    """Raise unless ``d`` proves the program unbounded on the original data,
    within ``FEAS_TOL``: ``a @ d`` keeps each row's sign, ``d`` stays in the
    recession cone of the bounds, and ``lp.objective @ d`` is negative."""
    miss = _row_misses(a @ d, rel)
    if miss.size and miss.max() > FEAS_TOL:
        row = int(np.argmax(miss))
        raise RuntimeError(f"unbounded ray leaves row {row} by {miss[row]:.3g}")
    off = np.maximum(
        np.where(np.isfinite(lp.lower), -d, 0.0),
        np.where(np.isfinite(lp.upper), d, 0.0),
    )
    if off.max() > FEAS_TOL:
        var = int(np.argmax(off))
        raise RuntimeError(
            f"unbounded ray leaves the bounds of variable {var} by {off[var]:.3g}"
        )
    slope = float(lp.objective @ d)
    if not slope < -FEAS_TOL:
        raise RuntimeError(f"unbounded ray does not lower the objective: {slope:.3g}")


def _check_infeasible(
    a: np.ndarray,
    b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    y: np.ndarray,
) -> None:
    """Raise unless ``y`` proves that no point meets the rows ``a @ x + s =
    b`` with ``(x, s)`` in the box ``[lower, upper]``: ``y @ b`` must lie
    more than ``FEAS_TOL`` outside the interval that ``y @ (a @ x + s)``
    spans over the box."""
    g = np.concatenate([y @ a, y])
    # The bounds at which each term of g @ (x, s) is least, then greatest.
    ends = np.stack(
        [np.where(g > 0.0, lower, upper), np.where(g > 0.0, upper, lower)]
    )
    # A rounding-sized coefficient on an infinite bound counts as zero.
    ends = np.where(np.isfinite(ends) | (np.abs(g) > PIVOT_TOL), ends, 0.0)
    least, greatest = ends @ g
    target = float(y @ b)
    if least - FEAS_TOL <= target <= greatest + FEAS_TOL:
        raise RuntimeError(
            f"infeasibility certificate fails: {target:.6g} lies in "
            f"[{least:.6g}, {greatest:.6g}]"
        )


def _row_prices(
    a: np.ndarray, rel: np.ndarray, cost: np.ndarray, pulled: np.ndarray
) -> np.ndarray:
    """Row duals that hand each pulled column's cost to its rows in
    proportion to its coefficients, ``y = a[:, j] * cost[j] / |a[:, j]|^2``
    summed over the pulled columns, clipped to the sign each row's relation
    allows (>= rows nonnegative, <= rows nonpositive, = rows free)."""
    cols = a[:, pulled]
    norms = np.einsum("ij,ij->j", cols, cols)
    used = norms > 0.0
    y = cols[:, used] @ (cost[pulled][used] / norms[used])
    return np.select(
        [rel == ">=", rel == "<="], [np.maximum(y, 0.0), np.minimum(y, 0.0)], y
    )


def solve(lp: LinearProgram) -> LpSolution:
    """Dual phase on priced costs, then primal phase on the true costs."""
    n, m = lp.num_vars, len(lp.constraints)
    a = np.array([con.coeffs for con in lp.constraints]).reshape(m, n)
    b = np.array([con.rhs for con in lp.constraints])
    rel = np.array([con.relation for con in lp.constraints], dtype=object)
    # One logical column per row, a @ x + s = b, bounded by the relation.
    s_lower = np.where(rel == ">=", -math.inf, 0.0)
    s_upper = np.where(rel == "<=", math.inf, 0.0)
    # A pulled column's cost pulls it toward an infinite bound.  The dual
    # phase prices the columns at cost - y @ a, with y from the pulled
    # columns' rows, so that their cost bears on the start.
    cost = lp.objective
    pulled = ((cost < 0.0) & (lp.upper == math.inf)) | (
        (cost > 0.0) & (lp.lower == -math.inf)
    )
    price = cost - _row_prices(a, rel, cost, pulled) @ a if pulled.any() else cost
    # Each column starts at the bound its price prefers.  Where that bound
    # is infinite it starts at its finite bound, or at 0 if free, and the
    # dual phase prices it at 0, so the all-logical start is dual feasible.
    start = np.where(
        np.isfinite(lp.lower),
        lp.lower,
        np.where(np.isfinite(lp.upper), lp.upper, 0.0),
    )
    preferred = np.where(
        price > 0.0, lp.lower, np.where(price < 0.0, lp.upper, start)
    )
    kept = np.isfinite(preferred)
    x0 = np.where(kept, preferred, start)
    tableau = np.hstack([a, np.eye(m)])
    lower = np.concatenate([lp.lower, s_lower])
    upper = np.concatenate([lp.upper, s_upper])
    x = np.concatenate([x0, b - a @ x0])
    basis = n + np.arange(m)

    shifted = np.zeros(n + m)
    shifted[:n] = np.where(kept, price, 0.0)
    row, dual_steps = _dual_simplex(tableau, basis, x, lower, upper, shifted)
    if row is not None:
        _check_infeasible(a, b, lower, upper, tableau[row, n:])
        return LpSolution(
            LpStatus.INFEASIBLE, None, None, dual_steps, (dual_steps, 0)
        )
    full = np.zeros(n + m)
    full[:n] = cost
    ray, primal_steps = _simplex(tableau, basis, x, lower, upper, full)
    steps = (dual_steps, primal_steps)
    if ray is not None:
        _check_ray(lp, a, rel, ray[:n])
        return LpSolution(LpStatus.UNBOUNDED, None, None, sum(steps), steps)
    _check_point(lp, a, b, rel, x[:n])
    return LpSolution(
        LpStatus.OPTIMAL, x[:n].copy(), float(cost @ x[:n]), sum(steps), steps
    )
