"""Exact linear algebra over the rationals.

Matrices are plain lists of rows of Fractions (or ints).  Rank, reduced echelon
form and kernels all go through one fraction-free (Bareiss) elimination on a
denominator-cleared integer copy; Fractions are built only for the rows a
function returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Row = list[Fraction]
Matrix = list[Row]

ZERO = Fraction(0)
ONE = Fraction(1)


def echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) row echelon form: (integer rows, pivot columns).

    Each nonzero row is cleared to coprime integers first, so the rows span
    the same space as the input; zero rows are dropped, and the result has
    one row per pivot.  Every division is exact, since each entry is a minor.
    """
    m = [_primitive(r) for r in rows if any(r)]
    pivots: list[int] = []
    ncols = len(m[0]) if m else 0
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        # rows below the pivot are zero left of col; only their tails change
        lead = [0] * (col + 1)
        tail = m[r][col + 1 :]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[col]
            if f:
                m[i] = lead + [(x * p - f * y) // prev for x, y in zip(row[col + 1 :], tail)]
            elif p != prev:
                m[i] = lead + [x * p // prev for x in row[col + 1 :]]
        prev = p
        pivots.append(col)
    return m[: len(pivots)], pivots


def _primitive(row) -> list[int]:
    """The nonzero row cleared of denominators and divided by its content."""
    ints = scaled([row], common_denominator(row))[0]
    g = gcd(*ints)
    return [x // g for x in ints]


def _reduced(rows) -> tuple[list[list[int]], list[int]]:
    """Integer rows, each a multiple of the matching reduced echelon row."""
    m, pivots = echelon(rows)
    for i in reversed(range(len(m))):
        row = m[i]
        for k in range(i + 1, len(m)):
            f, below = row[pivots[k]], m[k]
            if f:
                p = below[pivots[k]]
                row = [x * p - f * y for x, y in zip(row, below)]
        m[i] = _primitive(row)
    return m, pivots


def rank(rows: Matrix) -> int:
    """Rank, by fraction-free elimination on cleared integers."""
    return len(echelon(rows)[1])


def common_denominator(values) -> int:
    """The least common denominator of an iterable of Fractions or ints (1 if empty)."""
    return lcm(*(c.denominator for c in values))


def scaled(rows: Matrix, den: int) -> list[list[int]]:
    """den * rows in plain ints; den must be a common denominator of the entries."""
    return [[c.numerator * (den // c.denominator) for c in row] for row in rows]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (nonzero rows, as Fractions) and pivot columns."""
    m, pivots = _reduced(rows)
    return [
        [Fraction(x, row[p]) if x else ZERO for x in row] for row, p in zip(m, pivots)
    ], pivots


def kernel(rows: Matrix, ncols: int) -> Matrix:
    """Basis of {x : A x = 0}, one vector per free column of the RREF."""
    m, pivots = _reduced(rows)
    basis: Matrix = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, pcol in zip(m, pivots):
            if row[free]:
                vec[pcol] = Fraction(-row[free], row[pcol])
        basis.append(vec)
    return basis


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(x: Matrix, y: Matrix) -> Matrix:
    """Product of matrices of any size, over Fractions or plain ints."""
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def char_poly(m: Matrix) -> tuple[int, list[int]]:
    """(d, c) with d*M integral and c = det(xI - d*M), lowest degree first.

    Denominators are cleared once, and Faddeev-LeVerrier runs on the integer
    matrix A = d*M in plain ints: every division by k is exact, since A's
    characteristic polynomial is monic with integer coefficients.  That of M
    is the sum of c[k] x^k / d^(n-k), and its rational eigenvalues are y / d
    for the integer roots y of c.
    """
    n = len(m)
    d = common_denominator(c for row in m for c in row)
    a = scaled(m, d)
    coeffs_high = [1]  # leading coefficient of x^n
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = matmul(a, mk)
        ck = -sum(mk[i][i] for i in range(n)) // k
        coeffs_high.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return d, list(reversed(coeffs_high))
