"""Independent LP oracle: re-solve a design program with HiGHS.

``scipy.optimize.linprog(method="highs")`` is imported on first use, after
the timed loop, so it adds nothing to set-up or operation latency.
"""

from __future__ import annotations

import math
import time

import numpy as np

_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def solve_highs(program) -> dict:
    """Solve an ``eqdesign.LinearProgram``; return status, objective and
    wall seconds under the keys ``highs_status``, ``highs_objective`` and
    ``highs_s``."""
    from scipy.optimize import linprog

    upper, upper_rhs, eq_rows, eq_rhs = [], [], [], []
    for con in program.constraints:
        if con.relation == "<=":
            upper.append(con.coeffs)
            upper_rhs.append(con.rhs)
        elif con.relation == ">=":
            upper.append(-con.coeffs)
            upper_rhs.append(-con.rhs)
        else:
            eq_rows.append(con.coeffs)
            eq_rhs.append(con.rhs)
    bounds = [
        (lo if math.isfinite(lo) else None, hi if math.isfinite(hi) else None)
        for lo, hi in zip(program.lower, program.upper)
    ]
    start = time.perf_counter()
    res = linprog(
        program.objective,
        A_ub=np.array(upper) if upper else None,
        b_ub=np.array(upper_rhs) if upper else None,
        A_eq=np.array(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rows else None,
        bounds=bounds,
        method="highs",
    )
    status = _STATUS.get(res.status, f"error-{res.status}")
    return {
        "highs_status": status,
        "highs_objective": float(res.fun) if status == "optimal" else None,
        "highs_s": time.perf_counter() - start,
    }
