"""Self-contained dense linear programming, no external solver.

Minimization over box-bounded variables with <=, >=, and = rows, solved by
a two-phase bounded-variable primal simplex on a dense tableau.  Each row
gets one logical column ``s`` with ``a @ x + s = b``: ``s >= 0`` on <=,
``s <= 0`` on >=, ``s = 0`` on =.  Every column keeps its own bounds, and a
nonbasic column sits at one of them (at 0 if it is free).  Phase 1 adds
artificials only on rows whose logical cannot absorb the start point's
residual, and fixes them at 0 once it ends.

The entering column is the lowest eligible index (Bland's rule); the
leaving row comes from a Harris two-pass ratio test with tolerance
``PIVOT_TOL``.  ``iterations`` counts pivots and bound flips; a phase that
takes more than ``MAX_PIVOTS`` of them raises ``RuntimeError``.  An optimal
point is checked against the original rows and bounds within ``FEAS_TOL``
before it is returned, and a miss raises ``RuntimeError``.  Determinism:
identical inputs pivot identically, so solutions are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

# A tableau entry this small is treated as zero when selecting pivots.
PIVOT_TOL = 1e-9
# Phase-1 residual above this means the program is infeasible.
FEAS_TOL = 1e-7
# Either simplex phase taking more steps than this is a tool failure.
MAX_PIVOTS = 200_000

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
) -> tuple[str, int]:
    """Minimize ``cost @ x`` in place; returns (outcome, steps taken).

    Each step either moves the entering column to its other bound (a bound
    flip) or pivots it into the basis.  The leaving row comes from a Harris
    two-pass ratio test: the longest step that keeps every basic column
    within its bounds widened by ``PIVOT_TOL``, then the largest pivot among
    the rows that limit it.
    """
    crow = cost - cost[basis] @ tableau
    count = 0
    while True:
        crow[basis] = 0.0
        eligible = np.flatnonzero(
            ((crow < -PIVOT_TOL) & (x < upper))
            | ((crow > PIVOT_TOL) & (x > lower))
        )
        if eligible.size == 0:
            return "optimal", count
        col = int(eligible[0])
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
                return "unbounded", count
            x[col] = upper[col] if direction > 0.0 else lower[col]
            x[basis] -= span * alpha
        else:
            limiting = rows[ratios <= longest]
            row = int(limiting[np.argmax(size[limiting])])
            step = max(room[row] / size[row], 0.0)
            leaving = basis[row]
            x[col] += direction * step
            x[basis] -= step * alpha
            x[leaving] = lower[leaving] if alpha[row] > 0.0 else upper[leaving]
            _pivot(tableau, crow, basis, row, col)
        count += 1
        if count > MAX_PIVOTS:
            raise RuntimeError(f"simplex exceeded {MAX_PIVOTS} pivots")


def _pivot(
    tableau: np.ndarray, crow: np.ndarray, basis: np.ndarray, row: int, col: int
) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    crow -= crow[col] * tableau[row]
    basis[row] = col


def _check_point(
    lp: LinearProgram,
    a: np.ndarray,
    b: np.ndarray,
    rel: np.ndarray,
    x: np.ndarray,
) -> None:
    """Raise unless ``x`` meets every row ``a @ x rel b`` and every bound of
    ``lp`` within ``FEAS_TOL``."""
    lhs = a @ x
    miss = np.select([rel == "<=", rel == ">="], [lhs - b, b - lhs], abs(lhs - b))
    if miss.size and miss.max() > FEAS_TOL:
        row = int(np.argmax(miss))
        raise RuntimeError(f"simplex point misses row {row} by {miss[row]:.3g}")
    off = np.maximum(lp.lower - x, x - lp.upper)
    if off.max() > FEAS_TOL:
        var = int(np.argmax(off))
        raise RuntimeError(
            f"simplex point leaves the box of variable {var} by {off[var]:.3g}"
        )


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase bounded-variable simplex solve of the given program."""
    n, m = lp.num_vars, len(lp.constraints)
    a = np.array([con.coeffs for con in lp.constraints]).reshape(m, n)
    b = np.array([con.rhs for con in lp.constraints])
    rel = np.array([con.relation for con in lp.constraints], dtype=object)
    # One logical column per row, a @ x + s = b, bounded by the relation.
    s_lower = np.where(rel == ">=", -math.inf, 0.0)
    s_upper = np.where(rel == "<=", math.inf, 0.0)
    x0 = np.where(
        np.isfinite(lp.lower),
        lp.lower,
        np.where(np.isfinite(lp.upper), lp.upper, 0.0),
    )
    residual = b - a @ x0
    s0 = np.clip(residual, s_lower, s_upper)
    # Artificials absorb what a row's logical cannot at the start point.
    need = np.flatnonzero(residual != s0)
    k = need.size
    sign = np.sign(residual[need] - s0[need])
    tableau = np.zeros((m, n + m + k))
    tableau[:, :n] = a
    tableau[:, n : n + m] = np.eye(m)
    tableau[need, n + m + np.arange(k)] = sign
    tableau[need] *= sign[:, None]  # each basic column reads +1 in its row
    lower = np.concatenate([lp.lower, s_lower, np.zeros(k)])
    upper = np.concatenate([lp.upper, s_upper, np.full(k, math.inf)])
    x = np.concatenate([x0, s0, np.abs(residual[need] - s0[need])])
    basis = n + np.arange(m)
    basis[need] = n + m + np.arange(k)

    pivots = 0
    if k:
        phase1 = np.zeros(n + m + k)
        phase1[n + m :] = 1.0
        outcome, used = _simplex(tableau, basis, x, lower, upper, phase1)
        pivots += used
        if outcome != "optimal":  # phase 1 is bounded below by 0
            raise RuntimeError("phase 1 terminated abnormally")
        if x[n + m :].sum() > FEAS_TOL:
            return LpSolution(LpStatus.INFEASIBLE, None, None, pivots)
        upper[n + m :] = 0.0

    phase2 = np.zeros(n + m + k)
    phase2[:n] = lp.objective
    outcome, used = _simplex(tableau, basis, x, lower, upper, phase2)
    pivots += used
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, pivots)
    _check_point(lp, a, b, rel, x[:n])
    return LpSolution(
        LpStatus.OPTIMAL, x[:n].copy(), float(lp.objective @ x[:n]), pivots
    )
