from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc.errors import IndeterminateMismatch, ZeroPolynomial
from qcalc.exterior import Form, LieAlgebra, Vec
from qcalc.linalg import char_poly
from qcalc.parser import AlgebraDocument
from qcalc.qc import QCFrame
from qcalc.scalars import (
    Poly,
    integer_roots,
    is_zero,
    poly,
    poly_gcd,
    rational_roots,
    replace,
    substitute,
    variable,
)
from oracles import Inconsistent, Underdetermined, linear_coeffs, solve_linear, standard_frame

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
small_coeffs = st.lists(rationals, min_size=0, max_size=5)


def eval_coeffs(coeffs, x):
    """Independent evaluation oracle: plain power sum, no Horner."""
    return sum((c * x**k for k, c in enumerate(coeffs)), Fraction(0))


def test_rat_and_collapse():
    assert Fraction(3, 6) == Fraction(1, 2)
    assert poly("mu", 5) == Fraction(5)
    assert poly("mu", 0, 1) == variable("mu")
    p = variable("mu") - variable("mu")
    assert is_zero(p)
    assert isinstance(p, Fraction)


def test_degree_and_coeff():
    p = poly("mu", 1, 4, 3)
    assert isinstance(p, Poly)
    assert p.degree == 2
    assert p.coeff(0) == 1 and p.coeff(1) == 4 and p.coeff(2) == 3
    assert p.coeff(7) == 0


@given(small_coeffs, small_coeffs, rationals)
def test_add_matches_pointwise(a, b, x):
    pa, pb = poly("t", *a), poly("t", *b)
    assert substitute(pa + pb, x) == eval_coeffs(a, x) + eval_coeffs(b, x)


@given(small_coeffs, small_coeffs, rationals)
def test_mul_matches_pointwise(a, b, x):
    pa, pb = poly("t", *a), poly("t", *b)
    assert substitute(pa * pb, x) == eval_coeffs(a, x) * eval_coeffs(b, x)


@given(small_coeffs, rationals)
def test_neg_and_sub(a, x):
    pa = poly("t", *a)
    assert is_zero(pa - pa)
    assert substitute(-pa, x) == -eval_coeffs(a, x)


def test_mixed_indeterminates_rejected():
    with pytest.raises(IndeterminateMismatch):
        variable("mu") + variable("S")
    with pytest.raises(IndeterminateMismatch):
        variable("mu") * variable("S")


def test_division():
    p = poly("t", 1, 2)
    assert (p / 2) * 2 == p
    with pytest.raises(TypeError):
        p / variable("t")


def test_str_formats():
    assert str(Fraction(-3, 4)) == "-3/4"
    assert str(Fraction(7)) == "7"
    assert str(poly("mu", 1, 4, 3)) == "3*mu^2+4*mu+1"
    assert str(variable("mu")) == "mu"
    assert str(-variable("mu")) == "-mu"
    assert str(poly("S", Fraction(1, 2), -1)) == "-S+1/2"
    assert str(poly("t", 0, 0, 1)) == "t^2"


@given(small_coeffs, rationals)
def test_substitute_matches_oracle(a, x):
    assert substitute(poly("t", *a), x) == eval_coeffs(a, x)


def test_solve_linear():
    assert solve_linear(Fraction(2), Fraction(-3)) == Fraction(3, 2)
    with pytest.raises(Inconsistent):
        solve_linear(Fraction(0), Fraction(1))
    with pytest.raises(Underdetermined):
        solve_linear(Fraction(0), Fraction(0))


def test_linear_coeffs():
    a, b = linear_coeffs(poly("S", 3, -2), "S")
    assert (a, b) == (Fraction(-2), Fraction(3))
    a, b = linear_coeffs(Fraction(5), "S")
    assert (a, b) == (Fraction(0), Fraction(5))
    with pytest.raises(ValueError):
        linear_coeffs(poly("S", 0, 0, 1), "S")


@given(
    st.sets(
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
        min_size=1,
        max_size=3,
    )
)
def test_rational_roots_from_constructed_product(roots):
    # oracle: build prod (x - r) with known roots, then ask for them back
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [Fraction(0)] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    found = rational_roots(coeffs)
    assert found == roots
    for r in found:
        assert eval_coeffs(coeffs, r) == 0


def test_rational_roots_specific():
    # 3 mu^2 + 4 mu + 1 = (3 mu + 1)(mu + 1)
    assert rational_roots([Fraction(1), Fraction(4), Fraction(3)]) == {
        Fraction(-1),
        Fraction(-1, 3),
    }
    # irreducible over the rationals
    assert rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == set()
    # pure power contributes the zero root
    assert rational_roots([Fraction(0), Fraction(0), Fraction(1)]) == {Fraction(0)}
    # non-integer coefficients are cleared first
    assert rational_roots([Fraction(-1, 6), Fraction(1, 6), Fraction(1)]) == {
        Fraction(1, 3),
        Fraction(-1, 2),
    }


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        rational_roots([Fraction(0), Fraction(0)])
    with pytest.raises(ZeroPolynomial):
        rational_roots([])
    with pytest.raises(ZeroPolynomial):
        integer_roots([0])


def times(a, b):
    """Product of two low-first coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_integer_roots_specific():
    assert integer_roots([-6, 11, -6, 1]) == [1, 2, 3]
    # (2x - 1)(x - 3): only the integer root
    assert integer_roots([3, -7, 2]) == [3]
    # (2x - 5)(x - 3): the bisection ends on the interval (2, 3] holding both roots
    assert integer_roots([15, -11, 2]) == [3]
    # x^2 (x + 4)^3: zero and a repeated root, each once
    assert integer_roots(times([0, 0, 1], times([4, 1], times([4, 1], [4, 1])))) == [-4, 0]
    assert integer_roots([5]) == []
    # char polynomial sized coefficients: roots near 10^9 and a large gap
    assert integer_roots(times([-(10**9), 1], [10**9 + 7, 1])) == [-(10**9) - 7, 10**9]


def test_rational_roots_repeated_factor_keeps_every_root():
    # (x + 1)^2 (2x + 1)(x + 6): the repeated factor must not hide -1/2
    coeffs = times(times([1, 1], [1, 1]), times([1, 2], [6, 1]))
    assert rational_roots(coeffs) == {Fraction(-1), Fraction(-1, 2), Fraction(-6)}


big_rationals = st.builds(
    Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)
)


def is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


# (c, b, a) for a x^2 + b x + c, whose discriminant is not a square
irreducible_quadratics = st.tuples(
    st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), st.integers(1, 10**6)
).filter(lambda t: not is_square(t[1] ** 2 - 4 * t[0] * t[2]))


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(big_rationals, st.integers(1, 3), max_size=4),
    st.lists(irreducible_quadratics, max_size=1),
)
def test_rational_roots_recovers_planted_roots(planted, quadratics):
    # integer polynomial prod (q x - p)^m [* irreducible quadratic]
    coeffs = [1]
    for r, mult in planted.items():
        for _ in range(mult):
            coeffs = times(coeffs, [-r.numerator, r.denominator])
    for q in quadratics:
        coeffs = times(coeffs, list(q))
    assert rational_roots(coeffs) == set(planted)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 12)), max_size=3),
    st.lists(st.integers(-50, 50), min_size=1, max_size=5).filter(lambda c: c[-1] != 0),
)
def test_rational_roots_match_sympy(linear, rest):
    sympy = pytest.importorskip("sympy")
    coeffs = list(rest)
    for p, q in linear:
        coeffs = times(coeffs, [-p, q])
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(coeffs)), x).factor_list()
    expected = set()
    for f, _ in factors:
        if f.degree() == 1:
            a, b = f.all_coeffs()
            expected.add(Fraction(int(-b), int(a)))
    assert rational_roots(coeffs) == expected


def fraction_det(m):
    """Determinant by Gaussian elimination in Fractions."""
    m = [list(r) for r in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_char_poly_matches_fraction_determinant(m):
    # det(tI - M) at n + 1 points pins the monic degree-n polynomial down
    n = len(m)
    d, c = char_poly(m)
    assert all((d * x).denominator == 1 for row in m for x in row)
    assert len(c) == n + 1 and c[-1] == 1
    for t in range(n + 1):
        t = Fraction(t, 3)
        shifted = [[(t if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
        value = sum((Fraction(ck, d ** (n - k)) * t**k for k, ck in enumerate(c)), Fraction(0))
        assert value == fraction_det(shifted)


def test_poly_gcd():
    mu = variable("mu")
    a = (3 * mu + 1) * (mu + 1) * (mu - 2)
    b = 5 * (mu + 1) * (3 * mu + 1) * (mu * mu + 1)
    assert poly_gcd([a, b]) == mu * mu + Fraction(4, 3) * mu + Fraction(1, 3)
    assert poly_gcd([a, mu * mu + 1]) == Fraction(1)
    assert poly_gcd([a]) == a / 3


def test_value_classes():
    # defaults, a fresh dict where Form's terms default to empty
    assert Form(3, 1).terms == {} and Form(3, 1).terms is not Form(3, 1).terms
    zero2 = Form.zero(1, 2)
    assert LieAlgebra("a", 1, (zero2,)).param is None
    doc = AlgebraDocument(LieAlgebra("a", 1, (zero2,)))
    assert doc.frame is None and doc.flag is None
    # equality over the fields, by position or keyword, within one class
    assert Form(3, 1, {(1,): Fraction(1)}) == Form(dim=3, degree=1, terms={(1,): Fraction(1)})
    assert Form(3, 1) != Form(3, 2) and Vec((Fraction(1),)) != (Fraction(1),)
    assert LieAlgebra("a", 1, (zero2,), param="mu") == LieAlgebra(name="a", dim=1, differentials=(zero2,), param="mu")
    assert repr(Vec((Fraction(1),))) == "Vec(comps=(Fraction(1, 1),))"
    # Polys hash by value
    p = poly("mu", 1, 2)
    assert hash(p) == hash(poly("mu", 1, 2)) and len({p, poly("mu", 1, 2), poly("mu", 2, 1)}) == 2
    # every class refuses assignment, the parsed document too
    for obj, name in ((p, "var"), (Form(3, 1), "dim"), (Vec(()), "comps"), (LieAlgebra("a", 1, (zero2,)), "name"),
                      (doc, "frame")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    # replace copies with the given fields changed and rejects unknown ones
    q = replace(p, var="nu")
    assert (q.var, q.coeffs, p.var) == ("nu", p.coeffs, "mu")
    frame = standard_frame()
    assert replace(frame, scale=Fraction(3)).omegas == frame.omegas and frame.scale == 2
    for obj in (p, frame):
        with pytest.raises(TypeError):
            replace(obj, degree=3)
    with pytest.raises(TypeError):
        QCFrame(7, (1, 2, 3, 4))
    # LieAlgebra still validates, through replace too
    with pytest.raises(ValueError, match="outside"):
        LieAlgebra("a", 10, (zero2,) * 10)
    with pytest.raises(ValueError, match="one differential per covector"):
        replace(LieAlgebra("a", 1, (zero2,)), dim=2)
    with pytest.raises(ValueError, match="degree-2 forms"):
        LieAlgebra("a", 1, (Form.zero(1, 1),))
