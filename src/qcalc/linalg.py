"""Exact linear algebra over the rationals.

Matrices are plain lists of rows of Fractions.  Ranks go through fraction-free
(Bareiss) elimination on a denominator-cleared integer copy; reduced echelon
form and kernels stay in Fraction arithmetic where exactness is free anyway.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Row = list[Fraction]
Matrix = list[Row]

ZERO = Fraction(0)
ONE = Fraction(1)


def rank(rows: Matrix) -> int:
    """Rank via Bareiss fraction-free elimination on cleared integers."""
    m = [scaled([r], common_denominator(r))[0] for r in rows if any(c != 0 for c in r)]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            for j in range(col + 1, ncols):
                m[i][j] = (m[i][j] * m[r][col] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        prev = m[r][col]
        r += 1
        if r == len(m):
            break
    return r


def common_denominator(values) -> int:
    """The least common denominator of an iterable of Fractions (1 if empty)."""
    return lcm(*(c.denominator for c in values))


def scaled(rows: Matrix, den: int) -> list[list[int]]:
    """den * rows in plain ints; den must be a common denominator of the entries."""
    return [[c.numerator * (den // c.denominator) for c in row] for row in rows]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col]
        m[r] = [c / inv for c in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r]], pivots


def kernel(rows: Matrix, ncols: int) -> Matrix:
    """Basis of {x : A x = 0}, one vector per free column of the RREF."""
    if not rows:
        return [[ONE if j == i else ZERO for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows)
    basis: Matrix = []
    pivot_set = set(pivots)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[free] = ONE
        for row, pcol in zip(red, pivots):
            vec[pcol] = -row[free]
        basis.append(vec)
    return basis


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


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
        mk = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        ck = -sum(mk[i][i] for i in range(n)) // k
        coeffs_high.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return d, list(reversed(coeffs_high))
