"""`linalg.rank`, `rref` and `kernel` against sympy on random rational matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc.linalg import echelon, kernel, rank, rref

sympy = pytest.importorskip("sympy")

BIG = 10**6

entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(
        Fraction,
        st.integers(min_value=-BIG, max_value=BIG),
        st.integers(min_value=1, max_value=BIG),
    ),
)


@st.composite
def matrices(draw):
    """Rows drawn at random, then padded with zero rows and with combinations
    of earlier rows, so zero rows and rank deficiency are common."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=1, max_size=6))
    rows = list(base)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(("zero", "combination")))
        if kind == "zero":
            row = [Fraction(0)] * ncols
        else:
            coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            row = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(ncols)]
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), row)
    return rows


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_rref_and_kernel_match_sympy(rows):
    ncols = len(rows[0])
    m = to_sympy(rows)
    assert rank(rows) == m.rank()
    red, pivots = rref(rows)
    s_red, s_pivots = m.rref()
    assert pivots == list(s_pivots)
    assert red == from_sympy(s_red)[: len(s_pivots)]
    assert all(isinstance(x, Fraction) for row in red for x in row)
    basis = kernel(rows, ncols)
    assert basis == [from_sympy(v.T)[0] for v in m.nullspace()]
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_echelon_rows_are_integer_and_span_the_input(rows):
    ech, pivots = echelon(rows)
    assert len(ech) == len(pivots) == rank(rows)
    assert all(isinstance(x, int) for row in ech for x in row)
    # the echelon rows lie in the row space and reach it
    assert rank(rows + [[Fraction(x) for x in r] for r in ech]) == len(pivots)
    assert [next(j for j, x in enumerate(r) if x) for r in ech] == pivots


def test_empty_and_zero_matrices():
    assert rank([]) == 0
    assert rref([]) == ([], [])
    assert kernel([], 3) == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    assert rank(zero) == 0
    assert rref(zero) == ([], [])
    assert kernel(zero, 3) == kernel([], 3)


def test_integer_rows_are_accepted():
    rows = [[2, 4, 6], [1, 2, 4], [3, 6, 10]]
    assert rank(rows) == 2
    assert rref(rows) == ([[1, 2, 0], [0, 0, 1]], [0, 2])
    assert kernel(rows, 3) == [[-2, 1, 0]]
