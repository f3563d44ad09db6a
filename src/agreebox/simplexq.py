"""Exact integer linear algebra: affine solving and LP feasibility.

Both routines take integer systems only: every entry of M and c is an
int.  A caller with rational data clears its denominators first (a Box
carries its common denominator den and integer numerators num for this).
Both pivot on a fraction-free integer tableau (Edmonds, "Systems of
distinct representatives and linear algebra", 1967; Escobedo and
Moreno-Centeno, INFORMS J. Comput., 2015), with identity columns appended
to the coefficients.  The tableau T holds Python ints only and stands for
the rational tableau T / d, where d is the last pivot element (1 before
the first pivot).  A pivot at (r, col) with p = T[r][col] keeps row r and
maps every other row to (p * T[i][j] - T[i][col] * T[r][j]) // d, then
sets d = p.  The division is exact: with the identity columns in place,
every entry is d times an entry of B^-1 [M | I] for the current basis B,
and d = +-det B.  When p = d the update is T[i][j] - f * T[r][j] // d
with f = T[i][col] (exact too: the result and T[i][j] are ints, so d
divides f * T[r][j]), so only the columns where the pivot row is nonzero
change, in place, and no row is rescaled; any other pivot rebuilds every
row.  The 0/1 locality LPs of 2222 boxes pivot on units only (p = d = 1).
No Fraction is built anywhere here: both routines return their answer
as ints v with a divisor d, and the caller reads it off as v / d.
LinearSolver.solve's d is +-det B and may be negative; feasible_nonneg's
d is positive.

LinearSolver factors a fixed coefficient matrix once (Gauss-Jordan on
[M | I], recording the row transform) so that many right-hand sides can
be solved cheaply; the particular solution sets every free variable to
zero under a fixed pivot order, which makes the output deterministic.
feasible_nonneg decides existence of a nonnegative solution of M x = c by
a phase-one simplex with Bland's rule, comparing ratios by integer
cross-multiplication, and returns either the solution or a Farkas
certificate y with y M <= 0 and y c > 0.  Its tableau holds [M | I] and
the objective row; the rhs column lives beside it as one list, which
each pivot updates by the same rule.  Both certificates are rechecked
before they are returned, against the caller's own M and c, never against
the tableau, so a bug in the pivoting cannot silently produce a wrong
verdict.

On a fixed M and a fixed sign pattern of c, the phase-one tableau depends
only on the pivots taken so far: the objective row, the column Bland's
rule enters, that column's entries, the divisor d and, at the end, the
objective row's artificial block (the Farkas multipliers).  Only the
ratio test reads c, through the rhs, and its ties go by basis indices,
which the pivots fix too.  So feasible_nonneg records the pivot paths
taken in a dict its caller keeps for one M.  A solve along a recorded
path updates the rhs alone, O(m) per pivot against O(m (n + m)), and
reproduces the same pivots, basis, point, multipliers and d; a solve
that leaves the recorded paths, and every solve on an empty dict, runs
on the full tableau.
"""

from operator import mul


def _pivot(rows, r, col, d):
    """Fraction-free pivot of the integer tableau rows / d at (r, col).

    Returns the new divisor, the pivot element rows[r][col].
    """
    p = rows[r][col]
    pivot_row = rows[r]
    if p == d:
        # (p * vi - f * vr) // d is vi - f * vr // d: only the columns where
        # the pivot row is nonzero change, and no row is rescaled
        nonzero = [(j, vr) for j, vr in enumerate(pivot_row) if vr]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                for j, vr in nonzero:
                    row[j] -= f * vr // d
        return p
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if f:
            rows[i] = [(p * vi - f * vr) // d for vi, vr in zip(row, pivot_row)]
        else:
            rows[i] = [p * vi // d for vi in row]
    return p


class LinearSolver:
    """Reusable exact solver for M x = c with M fixed across calls."""

    def __init__(self, rows):
        m = len(rows)
        n = len(rows[0])
        # Gauss-Jordan on [M | I]; afterwards R = E M is in reduced row
        # echelon form and E records the elimination, E = transform / d.
        aug = [list(row) + [1 if j == i else 0 for j in range(m)] for i, row in enumerate(rows)]
        d = 1
        pivots = []
        r = 0
        for col in range(n):
            piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            d = _pivot(aug, r, col, d)
            pivots.append(col)
            r += 1
            if r == m:
                break
        self.m = m
        self.n = n
        self.rank = r
        self.pivots = pivots
        self.divisor = d
        self.transform = [row[n:] for row in aug]

    def solve(self, c):
        """(v, d): the particular solution with free variables zero is
        x = v / d, v a list of ints and d = +-det B an int that may be
        negative; None if M x = c is inconsistent."""
        if len(c) != self.m:
            raise ValueError("right-hand side has the wrong length")
        # x_pivot = E c = transform c / d
        v = [sum(e * ci for e, ci in zip(erow, c) if e) for erow in self.transform]
        if any(v[self.rank:]):
            return None
        x = [0] * self.n
        for col, vj in zip(self.pivots, v):
            x[col] = vj
        return x, self.divisor


# the most nodes a pivot-path tree records (2222 needs 97; a new box of a
# larger shape adds some 15); past it, a solve that leaves the tree starts
# over on the full tableau and records nothing
MAX_PATH_NODES = 1024


def _tableau(rows, c):
    """The phase-one tableau of M x = c with rows flipped to rhs >= 0.

    Each row is [M_i | e_i], its unit column cut from one zero block; the
    rhs |c| lives beside the tableau.  The objective row, for min(sum of
    artificials) priced out for the basis, is minus the column sums and 0
    under the artificials; it is the last row, so every pivot updates it.
    """
    m = len(rows)
    signed = [[-v for v in row] if ci < 0 else row for row, ci in zip(rows, c)]
    zeros = (0,) * m
    tab = [[*row, *zeros[:i], 1, *zeros[i + 1:]] for i, row in enumerate(signed)]
    tab.append([-sum(col) for col in zip(*signed)] + [0] * m)
    return tab


def feasible_nonneg(rows, c, paths):
    """Decide whether M x = c admits x >= 0, exactly.

    Returns (ok, v, d): v is a list of ints and d > 0 an int, and the
    caller reads the answer off as v / d.  With ok True, x = v / d is a
    verified nonnegative solution; with ok False, y = v / d is a verified
    Farkas vector: y M <= 0 entrywise and y c > 0, i.e. a linear
    functional separating c from the cone of nonnegative combinations of
    M's columns.  Both rechecks run on v and d, in integers.

    paths is a dict the caller keeps for this one M: the tree of the
    pivot paths earlier calls took ({} for none).  A node is keyed by the
    sign pattern of c and the leaving rows so far; it holds (entering
    column, that column's m + 1 entries), or (None, the objective row's
    artificial block) where the path ends.  Along a recorded path only
    the rhs is updated.  The first step the tree lacks starts the solve
    over on the full tableau and records each node it visits, up to
    MAX_PATH_NODES nodes.  The answer does not depend on the tree: the
    full tableau never reads a recorded entry, and the rechecks refuse
    any certificate that a damaged path gets wrong.
    """
    m = len(rows)
    n = len(rows[0])
    tab = key = None
    while True:
        if key is None:  # (re)start from the first pivot
            key = (bytes([ci < 0 for ci in c]),)
            basis = list(range(n, n + m))
            rhs = [*map(abs, c), -sum(map(abs, c))]
            d = 1
        node = None if tab else paths.get(key)
        if node:
            enter, col = node
        elif tab is None:  # the tree ends here: start over on the full tableau
            tab, key = _tableau(rows, c), None
            continue
        else:
            z = tab[m]
            enter = next((j for j in range(n + m) if z[j] < 0), None)  # Bland
            col = z[n:] if enter is None else [row[enter] for row in tab]
            if len(paths) < MAX_PATH_NODES:
                paths[key] = (enter, col)
        if enter is None:
            break
        # least ratio rhs / a over a > 0, ties to the least basic index;
        # ratios are compared by cross-multiplication
        leave = None
        for i in range(m):
            a = col[i]
            if a > 0:
                if leave is not None:
                    new, cur = rhs[i] * col[leave], rhs[leave] * a
                    if new > cur or (new == cur and basis[i] > basis[leave]):
                        continue
                leave = i
        if leave is None:
            raise RuntimeError("phase-one objective unbounded; cannot happen")
        if tab:
            _pivot(tab, leave, enter, d)
        p, v = col[leave], rhs[leave]  # _pivot's rule on the rhs
        if p != d:
            rhs = [(p * ri - a * v) // d for ri, a in zip(rhs, col)]
            rhs[leave] = v
        elif v:
            for i, a in enumerate(col):
                if a and i != leave:
                    rhs[i] -= a * v // d
        d = p
        basis[leave] = enter
        key += (leave,)

    if rhs[m] == 0:  # the artificial sum reached zero
        # x = X / d with X read off the basic rows; x >= 0 and M x = c, i.e.
        # M X = c d, checked over the support of X
        # (a sum of row[j] * v over the support measured faster on Python
        # 3.11 than sum(map(mul, ...)) over the support's entries)
        support = [(basis[i], rhs[i]) for i in range(m) if basis[i] < n and rhs[i]]
        if any(v < 0 for _, v in support) or any(
            sum(row[j] * v for j, v in support) != ci * d for row, ci in zip(rows, c)
        ):
            raise RuntimeError("simplex produced an invalid feasible point")
        X = [0] * n
        for j, v in support:
            X[j] = v
        return True, X, d

    # infeasible: simplex multipliers y = 1 - z[artificial] give the
    # separating functional; y = Y / d with d > 0, col the artificial block
    Y = [d - zi for zi in col]
    Y = [-yi if ci < 0 else yi for yi, ci in zip(Y, c)]
    # Y c, then Y M one column of M at a time
    if sum(map(mul, Y, c)) <= 0 or any(sum(map(mul, Y, col)) > 0 for col in zip(*rows)):
        raise RuntimeError("Farkas certificate failed verification")
    return False, Y, d
