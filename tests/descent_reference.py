"""The oracle's descents in their first, one-candidate-per-call form: the
projected-gradient descent scores each halving of a refused step with its own
``fg`` call, and the coordinate descent runs one line search per coordinate.
``nts.oracle._pgd_on_simplex`` and ``_refine_rows`` batch both and are
compared with these bit for bit."""

import numpy as np

from nts.oracle import _golden_min, project_simplex


def reference_pgd(fg, x0, project=project_simplex):
    """Projected (sub)gradient descent with backtracking, one candidate step
    per ``fg`` call."""
    x = x0.copy()
    fx, g = fg(x)
    step = 0.5
    for _ in range(400):
        improved = False
        while step > 1e-13:
            cand = project(x - step * g)
            fc, gc = fg(cand)
            if fc < fx - 1e-15:
                x, fx, g = cand, fc, gc
                step = min(step * 1.5, 4.0)
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return x, fx


def reference_refine_rows(values, x0, row_len, bracket):
    """Cyclic coordinate descent over a stack of simplex rows, one golden-section
    line search per coordinate."""
    x = x0.copy()
    fx = float(values(x[None])[0])
    nrows = x.size // row_len
    for _ in range(40):
        moved = 0.0
        f_start = fx
        for r in range(nrows):
            sl = slice(r * row_len, (r + 1) * row_len)
            for i in range(row_len):
                def along(ts, sl=sl, i=i):  # ts (1, k): one bracket's points
                    rows = np.repeat(x[None, sl], ts.size, axis=0)
                    rows[:, i] += ts[0]
                    cand = np.repeat(x[None], ts.size, axis=0)
                    cand[:, sl] = project_simplex(rows)
                    return values(cand)[None]

                t, ft = (float(v[0]) for v in _golden_min(along, np.array([-bracket]), np.array([bracket])))
                if ft < fx:
                    row = x[sl].copy()
                    row[i] += t
                    row = project_simplex(row)
                    moved = max(moved, float(np.abs(row - x[sl]).sum()))
                    x[sl] = row
                    fx = ft
        if moved < 1e-8 and f_start - fx < 1e-12:
            break
    return x, fx
