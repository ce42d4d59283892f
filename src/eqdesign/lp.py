"""Self-contained dense linear programming, no external solver.

Minimization over box-bounded variables with <=, >=, and = rows, solved by
a bounded-variable simplex on a dense tableau with no artificial columns.
A :class:`LinearProgram` is one record, validated when built: objective,
rows as one ``(m, n)`` array, relations, right-hand sides and bounds, each a
read-only copy that ``solve`` reads as it is.  Each row gets one logical
column ``s`` with ``a @ x + s = b``: ``s >= 0`` on <=, ``s <= 0`` on >=,
``s = 0`` on =.  Every column keeps its own bounds, and a nonbasic column
sits at one of them (at 0 if it is free).

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
costs, over the columns whose entry in that row exceeds ``PIVOT_TOL`` times
the row's largest entry (or 1, if larger), so a pivot that is rounding
noise beside the row never enters; a run of ``BLAND_AFTER`` steps without
progress switches both choices to the lowest index.  A row no column can
repair makes the program infeasible, and its row of the basis inverse is
checked as a certificate on the original data.  Primal phase: the entering
column is the eligible one with the largest reduced cost in magnitude and
the leaving row comes from a Harris two-pass ratio test; after a run of
``BLAND_AFTER`` pivots that do not move, both become the lowest index
(Bland's rule).  Both tests use ``PIVOT_TOL``.  An entering column that no
row limits and whose bound is infinite makes the program unbounded; the ray
it moves along is checked on the original data.

Each pivot costs a few dozen small numpy calls plus one dense rank-one
update, so the loops keep those calls few: each row's basic-column bounds
are kept in step with the basis instead of gathered per step, the dual
leaving row is one ``argmax``, and ``_step`` copies the pivot column once,
both to carry the basic values and as the factors of the update.  Every
such shortcut is exact: it makes the same choices with the same roundings.

``iterations`` counts pivots and bound flips, ``phase_steps`` splits them
between the two phases, and ``cells`` counts the tableau cells each phase's
pivots rewrite; a phase that takes more than ``MAX_PIVOTS`` of them raises
``RuntimeError``.  Before an optimal point is returned it is
checked against the original rows and bounds within ``FEAS_TOL``, and its
final basis against the original data: the row duals it implies must leave
no nonbasic column able to lower the cost by more than ``FEAS_TOL``.  A
miss raises ``RuntimeError``, as does an infeasibility certificate or a
ray that fails; each check is written so that a NaN fails it.
Determinism: identical inputs pivot identically, so solutions are
bit-reproducible.
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
    # Tableau cells each phase rewrote: m × (n+m) a pivot, none a bound flip.
    cells: tuple[int, int]


def _filled(value, shape: tuple[int, ...], what: str, dtype=float) -> np.ndarray:
    """``value`` as a new array of ``shape``: one entry per place, or one for all."""
    arr = np.asarray(value, dtype=dtype)
    if arr.shape not in ((), shape):
        raise LpInputError(f"{what}: shape {arr.shape} does not fit {shape}")
    return arr.copy() if arr.shape else np.full(shape, arr)


class LinearProgram:
    """Minimize ``objective @ x`` subject to ``rows @ x relations rhs`` and
    ``lower <= x <= upper``.  ``relations`` (``<=``, ``>=`` or ``=``) and
    ``rhs`` take one value per row or one for all, ``lower`` and ``upper``
    one per variable or one for all, free by default.  Each array is a
    read-only copy of its input, validated once: bad shapes, non-finite data,
    unknown relations and boxes with no finite point raise LpInputError."""

    def __init__(
        self, objective, rows, relations, rhs, lower=-math.inf, upper=math.inf
    ):
        self.objective = np.array(objective, dtype=float)
        n = self.objective.size
        if self.objective.shape != (n,) or n < 1:
            raise LpInputError(
                f"program needs at least one variable; objective has shape "
                f"{self.objective.shape}"
            )
        self.rows = np.array(rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != n:
            raise LpInputError(f"rows have shape {self.rows.shape}, not {n} per row")
        for what, arr in (("objective", self.objective), ("constraint", self.rows)):
            if not np.isfinite(arr).all():
                raise LpInputError(f"{what} has non-finite coefficients")
        m = self.rows.shape[:1]
        self.relations = _filled(relations, m, "relations", str)
        unknown = [r for r in self.relations.tolist() if r not in _RELATIONS]
        if unknown:
            raise LpInputError(f"unknown relation {unknown[0]!r}")
        self.rhs = _filled(rhs, m, "rhs")
        if not np.isfinite(self.rhs).all():
            raise LpInputError("constraint rhs must be finite")
        self.lower = lo = _filled(lower, (n,), "lower bounds")
        self.upper = hi = _filled(upper, (n,), "upper bounds")
        # False on NaN, on lower > upper and on a box at +inf or at -inf.
        boxed = (lo <= hi) & (lo < math.inf) & (hi > -math.inf)
        if not boxed.all():
            j = boxed.argmin()
            raise LpInputError(
                f"bounds [{lo[j]}, {hi[j]}] of variable {j} hold no finite point"
            )
        for arr in vars(self).values():
            arr.setflags(write=False)

    @property
    def num_vars(self) -> int:
        return self.objective.size

    @property
    def constraints(self) -> list[Constraint]:
        """One :class:`Constraint` per row, over read-only views of ``rows``."""
        rels, rhs = self.relations.tolist(), self.rhs.tolist()
        return [Constraint(*con) for con in zip(self.rows, rels, rhs)]

    def dump(self) -> str:
        """Human-readable rendering over variables ``x0, x1, ...``, stable
        across runs; every number is printed with 17 significant digits,
        enough to read each float back exactly."""
        names = [f"x{j}" for j in range(self.num_vars)]

        def terms(coeffs: np.ndarray) -> str:
            return " ".join(f"{c:+.17g}*{x}" for c, x in zip(coeffs.tolist(), names))

        lines = ["minimize " + terms(self.objective), "subject to"]
        rels, rhs = self.relations.tolist(), self.rhs.tolist()
        for row, rel, b in zip(self.rows, rels, rhs):
            lines.append(f"  {terms(row)} {rel} {b:.17g}")
        lines.append("bounds")
        for lo, hi, name in zip(self.lower.tolist(), self.upper.tolist(), names):
            lines.append(f"  {lo:.17g} <= {name} <= {hi:.17g}")
        return "\n".join(lines)


def _simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    cost: np.ndarray,
) -> tuple[Optional[np.ndarray], tuple[int, int]]:
    """Minimize ``cost @ x`` in place from a basis whose columns are all
    within their bounds; returns (ray, (steps taken, pivots among them)),
    with ``ray`` None at an optimum, else a direction along which the cost
    falls without end.

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
    # The bounds of each row's basic column, kept in step with the basis.
    row_lower, row_upper = lower[basis], upper[basis]
    count = pivots = stalled = 0
    while True:
        crow[basis] = 0.0
        eligible = (
            ((crow < -PIVOT_TOL) & (x < upper)) | ((crow > PIVOT_TOL) & (x > lower))
        ).nonzero()[0]
        if not eligible.size:
            return None, (count, pivots)
        if stalled >= BLAND_AFTER:
            col = eligible[0]
        else:
            col = eligible[np.abs(crow[eligible]).argmax()]
        direction = 1.0 if crow[col] < 0.0 else -1.0
        # Basic values move by -step * alpha as the entering column moves.
        alpha = direction * tableau[:, col]
        values = x[basis]
        room = np.where(alpha > 0.0, values - row_lower, row_upper - values)
        size = np.abs(alpha)
        rows = (size > PIVOT_TOL).nonzero()[0]
        ratios = room[rows] / size[rows]
        reach = (room[rows] + PIVOT_TOL) / size[rows]
        longest = reach[reach.argmin()] if rows.size else math.inf
        span = upper[col] - lower[col]
        if span <= longest:
            if math.isinf(span):
                ray = np.zeros(x.size)
                ray[basis] = -alpha
                ray[col] = direction
                return ray, (count, pivots)
            x[col] = upper[col] if direction > 0.0 else lower[col]
            x[basis] -= span * alpha
            stalled = 0
        else:
            limiting = rows[ratios <= longest]
            if stalled >= BLAND_AFTER:
                row = limiting[basis[limiting].argmin()]
            else:
                row = limiting[size[limiting].argmax()]
            leaving = basis[row]
            bound = lower[leaving] if alpha[row] > 0.0 else upper[leaving]
            step = max(room[row] / size[row], 0.0)
            stalled = stalled + 1 if step == 0.0 else 0
            _step(tableau, crow, basis, x, row, col, direction * step, bound)
            row_lower[row], row_upper[row] = lower[col], upper[col]
            pivots += 1
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

    The leaving row has the largest bound violation, the first such row on a
    tie; the entering column comes from a Harris two-pass ratio test on the
    reduced costs of the columns whose entry in that row passes
    ``PIVOT_TOL`` times the row's largest entry (or 1, if larger): the
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
    if not basis.size:
        return None, 0
    crow = cost - cost[basis] @ tableau
    # The bounds of each row's basic column, kept in step with the basis.
    row_lower, row_upper = lower[basis], upper[basis]
    count = stalled = 0
    least = math.inf
    while True:
        values = x[basis]
        below = row_lower - values
        violation = np.maximum(below, values - row_upper)
        row = violation.argmax()
        if not violation[row] > PIVOT_TOL:
            return None, count
        infeasible = violation > PIVOT_TOL
        total = np.add.reduce(violation[infeasible])
        if total < least - PIVOT_TOL:
            least, stalled = total, 0
        bland = stalled >= BLAND_AFTER
        if bland:
            rows = infeasible.nonzero()[0]
            row = rows[basis[rows].argmin()]
        leaving = basis[row]
        rising = below[row] > 0.0
        # The leaving value moves by move * alpha[col]; alpha > 0 marks
        # columns that repair it by rising, alpha < 0 by falling.
        alpha = -tableau[row] if rising else tableau[row]
        # Relative to the row's largest entry: rounding noise never enters.
        tol = PIVOT_TOL * max(1.0, np.abs(alpha).max())
        eligible = (
            ((alpha > tol) & (x < upper)) | ((alpha < -tol) & (x > lower))
        ).nonzero()[0]
        if not eligible.size:
            return row, count
        entries = alpha[eligible]
        sign = np.sign(entries)
        size = entries * sign  # |entries|, exactly
        # How far each reduced cost may travel before it changes sign.
        room = crow[eligible] * sign
        reach = (room + PIVOT_TOL) / size
        longest = reach[reach.argmin()]
        ties = (room / size <= longest).nonzero()[0]
        pick = ties[0] if bland else ties[size[ties].argmax()]
        col = eligible[pick]
        stalled = stalled + 1 if room[pick] <= PIVOT_TOL else 0
        bound = lower[leaving] if rising else upper[leaving]
        move = (x[leaving] - bound) / tableau[row, col]
        _step(tableau, crow, basis, x, row, col, move, bound)
        row_lower[row], row_upper[row] = lower[col], upper[col]
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
    set the column leaving ``row`` to ``bound`` and pivot ``col`` into it.

    One copy of the pivot column serves both: it carries the basic values,
    then, with its pivot entry zeroed, it holds the factors of the rank-one
    update that clears ``col`` from every other row."""
    column = tableau[:, col].copy()
    x[col] += move
    x[basis] -= move * column
    x[basis[row]] = bound
    pivot_row = tableau[row]
    pivot_row /= column[row]
    column[row] = 0.0
    tableau -= column[:, None] * pivot_row
    crow -= crow[col] * pivot_row
    basis[row] = col


def _check_box(
    name: str, v: np.ndarray, s: np.ndarray, lower: np.ndarray,
    upper: np.ndarray, var_text: str, row_text: str,
) -> None:
    """Raise unless ``v`` and its logical columns ``s`` lie in the box
    ``[lower, upper]`` within ``FEAS_TOL``; a NaN anywhere fails.  The
    message names ``name`` and the worst entry: ``var_text`` and its
    variable, or ``row_text`` and its row."""
    both = np.concatenate([v, s])
    off = np.maximum(lower - both, both - upper)
    worst = off.argmax()
    if not off[worst] <= FEAS_TOL:
        text, at = (row_text, worst - v.size) if worst >= v.size else (var_text, worst)
        raise RuntimeError(f"{name} {text} {at} by {off[worst]:.3g}")


def _check_ray(
    a: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    objective: np.ndarray,
    d: np.ndarray,
) -> None:
    """Raise unless ``d`` proves the program unbounded on the original data,
    within ``FEAS_TOL``: ``d`` and the logical columns' move ``-a @ d`` stay
    in the recession cone of the box ``[lower, upper]``, and ``objective @
    d`` is negative; a NaN anywhere fails."""
    cone_lower = np.where(np.isfinite(lower), 0.0, lower)
    cone_upper = np.where(np.isfinite(upper), 0.0, upper)
    _check_box(
        "unbounded ray", d, -(a @ d), cone_lower, cone_upper,
        "leaves the bounds of variable", "leaves row",
    )
    slope = float(objective @ d)
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
    spans over the box.  A NaN anywhere fails."""
    g = np.concatenate([y @ a, y])
    # The bounds at which each term of g @ (x, s) is least, then greatest.
    up = g > 0.0
    ends = np.array([np.where(up, lower, upper), np.where(up, upper, lower)])
    # A rounding-sized coefficient on an infinite bound counts as zero.
    ends = np.where(np.isfinite(ends) | (np.abs(g) > PIVOT_TOL), ends, 0.0)
    least, greatest = ends @ g
    target = float(y @ b)
    if not (target < least - FEAS_TOL or target > greatest + FEAS_TOL):
        raise RuntimeError(
            f"infeasibility certificate fails: {target:.6g} lies in "
            f"[{least:.6g}, {greatest:.6g}]"
        )


def _check_duals(
    a: np.ndarray,
    cost: np.ndarray,
    tableau: np.ndarray,
    basis: np.ndarray,
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> None:
    """Raise unless the final basis prices ``x`` optimal on the original
    data.  The row duals ``y = cost[basis] @ B^-1`` come from the tableau's
    logical block, and each nonbasic column's reduced cost on ``[a, I]``
    must be at least ``-FEAS_TOL`` if the column can rise and at most
    ``FEAS_TOL`` if it can fall: >= 0 at a lower bound, <= 0 at an upper
    one, about 0 when free; a fixed column is exempt.  A NaN fails."""
    n = a.shape[1]
    y = cost[basis] @ tableau[:, n:]
    reduced = np.concatenate([cost[:n] - y @ a, -y])
    off = np.maximum(
        np.where(x < upper, -reduced, -math.inf),
        np.where(x > lower, reduced, -math.inf),
    )
    off[basis] = -math.inf
    worst = off.argmax()
    if not off[worst] <= FEAS_TOL:
        raise RuntimeError(
            f"simplex optimum fails its dual check: column {worst} could "
            f"lower the cost at rate {off[worst]:.3g}"
        )


def _row_prices(
    a: np.ndarray,
    s_lower: np.ndarray,
    s_upper: np.ndarray,
    cost: np.ndarray,
    pulled: np.ndarray,
) -> np.ndarray:
    """Row duals that hand each pulled column's cost to its rows in
    proportion to its coefficients, ``y = a[:, j] * cost[j] / |a[:, j]|^2``
    summed over the pulled columns, clipped to the sign each row's relation
    allows: >= rows (``s_lower`` = -inf) nonnegative, <= rows (``s_upper`` =
    inf) nonpositive, = rows free."""
    cols = a[:, pulled]
    norms = np.einsum("ij,ij->j", cols, cols)
    used = norms > 0.0
    y = cols[:, used] @ (cost[pulled][used] / norms[used])
    return np.where(
        s_lower < 0.0,
        np.maximum(y, 0.0),
        np.where(s_upper > 0.0, np.minimum(y, 0.0), y),
    )


def solve(lp: LinearProgram) -> LpSolution:
    """Dual phase on priced costs, then primal phase on the true costs."""
    a, b, cost, lo, hi = lp.rows, lp.rhs, lp.objective, lp.lower, lp.upper
    m, n = a.shape
    # One logical column per row, a @ x + s = b, bounded by the relation:
    # s >= 0 on <=, s <= 0 on >=, s = 0 on =.
    lower = np.concatenate([lo, np.where(lp.relations == ">=", -math.inf, 0.0)])
    upper = np.concatenate([hi, np.where(lp.relations == "<=", math.inf, 0.0)])
    # Each column starts at the bound its price prefers.  Where that bound
    # is infinite it starts at its finite bound, or at 0 if free, and the
    # dual phase prices it at 0, so the all-logical start is dual feasible.
    start = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    preferred = np.where(cost > 0.0, lo, np.where(cost < 0.0, hi, start))
    kept, price = np.isfinite(preferred), cost
    # On the cost, the columns not kept are the pulled ones, whose cost
    # pulls them toward an infinite bound.  The dual phase prices the
    # columns at cost - y @ a, with y from their rows, so that their cost
    # bears on the start.
    if not kept.all():
        price = cost - _row_prices(a, lower[n:], upper[n:], cost, ~kept) @ a
        preferred = np.where(price > 0.0, lo, np.where(price < 0.0, hi, start))
        kept = np.isfinite(preferred)
    x0 = np.where(kept, preferred, start)
    basis = np.arange(n, n + m)
    tableau = np.zeros((m, n + m))
    tableau[:, :n] = a
    tableau.reshape(-1)[n :: n + m + 1] = 1.0  # the logical block is I
    x = np.concatenate([x0, b - a @ x0])

    shifted = np.zeros(n + m)
    shifted[:n] = np.where(kept, price, 0.0)
    row, dual_steps = _dual_simplex(tableau, basis, x, lower, upper, shifted)
    if row is not None:
        _check_infeasible(a, b, lower, upper, tableau[row, n:])
        return LpSolution(
            LpStatus.INFEASIBLE, None, None, dual_steps, (dual_steps, 0),
            (dual_steps * tableau.size, 0),
        )
    full = np.zeros(n + m)
    full[:n] = cost
    ray, (primal_steps, pivots) = _simplex(tableau, basis, x, lower, upper, full)
    steps = (dual_steps, primal_steps)
    cells = (dual_steps * tableau.size, pivots * tableau.size)
    if ray is not None:
        _check_ray(a, lower, upper, cost, ray[:n])
        return LpSolution(LpStatus.UNBOUNDED, None, None, sum(steps), steps, cells)
    # x meets every row and bound: it and its logical columns lie in the box.
    _check_box(
        "simplex point", x[:n], b - a @ x[:n], lower, upper,
        "leaves the box of variable", "misses row",
    )
    _check_duals(a, full, tableau, basis, x, lower, upper)
    return LpSolution(
        LpStatus.OPTIMAL, x[:n].copy(), float(cost @ x[:n]), sum(steps), steps,
        cells,
    )
