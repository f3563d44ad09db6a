"""Exact rational linear algebra: affine solving and LP feasibility.

Two workhorses live here.  LinearSolver factors a fixed coefficient matrix
once (Gauss-Jordan over Fractions, recording the row transform) so that
many right-hand sides can be solved cheaply; the particular solution sets
every free variable to zero under a fixed pivot order, which makes the
output deterministic.  feasible_nonneg decides existence of a nonnegative
solution of M x = c by a phase-one simplex with Bland's rule, returning
either the solution or a Farkas certificate y with y M <= 0 and y c > 0.
Both certificates are re-verified before being returned, so a bug in the
pivoting cannot silently produce a wrong verdict.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(rows, r, col):
    """Scale row r to a unit pivot at col and clear col from every other row."""
    piv = rows[r][col]
    if piv != 1:
        rows[r] = [v / piv for v in rows[r]]
    pivot_row = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[col] != 0:
            f = row[col]
            rows[i] = [vi - f * vr for vi, vr in zip(row, pivot_row)]


class LinearSolver:
    """Reusable exact solver for M x = c with M fixed across calls."""

    def __init__(self, rows):
        m = len(rows)
        n = len(rows[0])
        # Gauss-Jordan on [M | I]; afterwards R = E M is in reduced row
        # echelon form and E records the elimination.
        aug = [
            [Fraction(v) for v in row] + [ONE if j == i else ZERO for j in range(m)]
            for i, row in enumerate(rows)
        ]
        pivots = []
        r = 0
        for col in range(n):
            piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            _pivot(aug, r, col)
            pivots.append(col)
            r += 1
            if r == m:
                break
        self.m = m
        self.n = n
        self.rank = r
        self.pivots = pivots
        self.transform = [row[n:] for row in aug]

    def solve(self, c):
        """Particular solution with free variables zero, or None if inconsistent."""
        if len(c) != self.m:
            raise ValueError("right-hand side has the wrong length")
        v = [
            sum((e * ci for e, ci in zip(erow, c) if e != 0), ZERO)
            for erow in self.transform
        ]
        for j in range(self.rank, self.m):
            if v[j] != 0:
                return None
        x = [ZERO] * self.n
        for j, col in enumerate(self.pivots):
            x[col] = v[j]
        return x


def feasible_nonneg(rows, c):
    """Decide whether M x = c admits x >= 0, exactly.

    Returns (True, x, None) with a verified nonnegative solution, or
    (False, None, y) with a verified Farkas vector: y M <= 0 entrywise and
    y c > 0, i.e. a linear functional separating c from the cone of
    nonnegative combinations of M's columns.
    """
    m = len(rows)
    n = len(rows[0])
    # phase one: minimize the sum of artificials on rows flipped to rhs >= 0
    flipped = [c[i] < 0 for i in range(m)]
    tab = []
    for i in range(m):
        sign = -1 if flipped[i] else 1
        row = [sign * Fraction(v) for v in rows[i]]
        row += [ONE if j == i else ZERO for j in range(m)]
        row.append(sign * Fraction(c[i]))
        tab.append(row)
    basis = list(range(n, n + m))
    # objective row for min(sum of artificials), priced out for the basis;
    # it is the last tableau row, so every pivot updates it too
    z = [-sum((tab[i][j] for i in range(m)), ZERO) for j in range(n + m + 1)]
    for i in range(m):
        z[n + i] += 1
    tab.append(z)

    while True:
        enter = next((j for j in range(n + m) if tab[m][j] < 0), None)  # Bland
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            raise RuntimeError("phase-one objective unbounded; cannot happen")
        _, leave = best
        _pivot(tab, leave, enter)
        basis[leave] = enter

    z = tab[m]
    w = -z[-1]  # optimal value of the artificial sum
    if w == 0:
        x = [ZERO] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = tab[i][-1]
        for i in range(m):
            got = sum((Fraction(rows[i][j]) * x[j] for j in range(n) if x[j]), ZERO)
            if got != c[i] or any(xi < 0 for xi in x):
                raise RuntimeError("simplex produced an invalid feasible point")
        return True, x, None

    # infeasible: simplex multipliers give the separating functional
    y = [ONE - z[n + i] for i in range(m)]
    y = [-y[i] if flipped[i] else y[i] for i in range(m)]
    value = sum((y[i] * c[i] for i in range(m)), ZERO)
    if value <= 0:
        raise RuntimeError("Farkas certificate failed verification")
    for j in range(n):
        col = sum((y[i] * rows[i][j] for i in range(m)), ZERO)
        if col > 0:
            raise RuntimeError("Farkas certificate failed verification")
    return False, None, y
