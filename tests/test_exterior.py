import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc.errors import ParametricNotSupported
from qcalc.exterior import (
    MAX_DIM,
    Form,
    LieAlgebra,
    Vec,
    cohomology_dim,
    derived_and_central_series,
    monomials,
    substitute_form,
)
from qcalc.scalars import is_zero, variable
from oracles import bracket, covector, document, evaluate, form_coords, interior, jacobi_check


def alg(name: str) -> LieAlgebra:
    return document(name).algebra


# ---------------------------------------------------------------------------
# independent oracles


def bracket_vec(g: LieAlgebra, u: Vec, v: Vec) -> Vec:
    """[u, v] as a sum of Fraction multiples of the basis brackets bracket(g, i, j)."""
    out = Vec.zero(g.dim)
    for i in range(1, g.dim + 1):
        ci = u.comp(i)
        if is_zero(ci):
            continue
        for j in range(1, g.dim + 1):
            cj = v.comp(j)
            if is_zero(cj) or i == j:
                continue
            out = out + (ci * cj) * bracket(g, i, j)
    return out


def eval_oracle(f: Form, vectors):
    """Evaluate by the raw alternating sum over permutations."""
    total = Fraction(0)
    k = f.degree
    for idx, c in f.terms.items():
        for perm in itertools.permutations(range(k)):
            sign = perm_sign(perm)
            prod = c
            for slot, pos in enumerate(perm):
                prod = prod * vectors[pos].comp(idx[slot])
            total = total + sign * prod
    return total


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def wedge_oracle(a: Form, b: Form, vectors):
    """(a wedge b)(v...) via the shuffle formula, independent of Form.wedge."""
    p, q = a.degree, b.degree
    total = Fraction(0)
    for left in itertools.combinations(range(p + q), p):
        right = tuple(i for i in range(p + q) if i not in left)
        perm = left + right
        sign = perm_sign(perm)
        total = total + sign * eval_oracle(a, [vectors[i] for i in left]) * eval_oracle(
            b, [vectors[i] for i in right]
        )
    return total


DIM = 5

form_strategy = st.builds(
    lambda pairs, degree: Form.make(
        DIM,
        degree,
        {
            idx: Fraction(c)
            for idx, c in zip(itertools.combinations(range(1, DIM + 1), degree), pairs)
        },
    ),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=10, max_size=10),
    st.integers(min_value=1, max_value=3),
)

vec_strategy = st.builds(
    lambda comps: Vec(tuple(Fraction(c) for c in comps)),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=DIM, max_size=DIM),
)


@given(form_strategy, st.lists(vec_strategy, min_size=3, max_size=3))
def test_evaluate_matches_permutation_oracle(f, vectors):
    assert evaluate(f, vectors[: f.degree]) == eval_oracle(f, vectors[: f.degree])


@settings(max_examples=40)
@given(form_strategy, form_strategy, st.lists(vec_strategy, min_size=6, max_size=6))
def test_wedge_matches_shuffle_oracle(a, b, vectors):
    w = a.wedge(b)
    k = a.degree + b.degree
    if k > DIM:
        assert w.is_zero
        return
    assert evaluate(w, vectors[:k]) == wedge_oracle(a, b, vectors[:k])


@given(form_strategy, form_strategy)
def test_wedge_graded_anticommutative(a, b):
    sign = (-1) ** (a.degree * b.degree)
    assert a.wedge(b) == sign * b.wedge(a)


def test_wedge_specific_values():
    e = lambda *idx: Form.monomial(DIM, Fraction(1), idx)
    assert e(1).wedge(e(2)) == e(1, 2)
    assert e(1, 2).wedge(e(3, 4)) == e(1, 2, 3, 4)
    omega = e(1, 2) + e(3, 4)
    assert omega.wedge(omega) == 2 * e(1, 2, 3, 4)
    assert e(1).wedge(e(1)).is_zero


def test_evaluate_and_interior_specific():
    e12 = Form.monomial(4, Fraction(1), (1, 2))
    e1, e2 = Vec.basis(4, 1), Vec.basis(4, 2)
    assert evaluate(e12, [e1, e2]) == 1
    assert evaluate(e12, [e2, e1]) == -1
    assert interior(e12, e1) == covector(4, 2)
    assert interior(e12, e2) == -1 * covector(4, 1)


MU = variable("mu")

two_form_strategy = st.lists(
    st.tuples(st.integers(min_value=-4, max_value=4), st.integers(min_value=-2, max_value=2)),
    min_size=10,
    max_size=10,
).map(
    lambda cs: Form.make(
        DIM, 2, {idx: c0 + c1 * MU for idx, (c0, c1) in zip(itertools.combinations(range(1, DIM + 1), 2), cs)}
    )
)


@given(two_form_strategy)
def test_pair_matches_evaluate_on_basis_pairs(f):
    # Fraction and Poly coefficients alike; evaluate is the determinant expansion
    for a in range(1, DIM + 1):
        for b in range(1, DIM + 1):
            value = f.pair(a, b)
            assert value == evaluate(f, [Vec.basis(DIM, a), Vec.basis(DIM, b)])
            assert value == -f.pair(b, a)
            if a == b:
                assert value == 0


def test_pair_specific_values():
    f = Form.make(4, 2, {(1, 2): Fraction(3), (2, 4): 1 + MU})
    assert f.pair(1, 2) == 3
    assert f.pair(2, 1) == -3
    assert f.pair(4, 2) == -1 - MU
    assert f.pair(1, 3) == 0
    assert f.pair(2, 2) == 0


# ---------------------------------------------------------------------------
# differential, bracket, Jacobi


@pytest.mark.parametrize("name", ["g1", "g2", "heisenberg"])
def test_one_form_differential_convention(name):
    # d(alpha)(X, Y) = -alpha([X, Y]) on every basis pair
    g = alg(name)
    for k in range(1, g.dim + 1):
        alpha = covector(g.dim, k)
        dalpha = g.d(alpha)
        for i in range(1, g.dim + 1):
            for j in range(1, g.dim + 1):
                x, y = Vec.basis(g.dim, i), Vec.basis(g.dim, j)
                assert evaluate(dalpha, [x, y]) == -evaluate(alpha, [bracket_vec(g, x, y)])


def test_two_form_differential_convention():
    # d(w)(X,Y,Z) = -w([X,Y],Z) + w([X,Z],Y) - w([Y,Z],X) for invariant forms
    g = alg("g1")
    for idx in itertools.combinations(range(1, 8), 2):
        w = Form.monomial(g.dim, Fraction(1), idx)
        dw = g.d(w)
        for a, b, c in itertools.combinations(range(1, 8), 3):
            x, y, z = (Vec.basis(g.dim, i) for i in (a, b, c))
            expected = (
                -evaluate(w, [bracket_vec(g, x, y), z])
                + evaluate(w, [bracket_vec(g, x, z), y])
                - evaluate(w, [bracket_vec(g, y, z), x])
            )
            assert evaluate(dw, [x, y, z]) == expected


def test_d_is_antiderivation():
    g = alg("g2")
    a = covector(7, 2)
    b = Form.monomial(7, Fraction(1), (3, 5)) + 2 * Form.monomial(7, Fraction(1), (6, 7))
    left = g.d(a.wedge(b))
    right = g.d(a).wedge(b) - a.wedge(g.d(b))
    assert left == right


@pytest.mark.parametrize("name", ["g1", "g2", "heisenberg", "prop31_family"])
def test_catalog_jacobi(name):
    g = alg(name)
    if g.parametric:
        g = g.substitute(Fraction(-1))
    assert jacobi_check(g) == []
    assert g.is_valid


def test_jacobi_violation_detected():
    # quaternionic Heisenberg with an extra vertical-vertical term breaks d^2 = 0
    doc = document("heisenberg")
    mu = variable("mu")
    diffs = dict(enumerate(doc.algebra.differentials, start=1))
    diffs[7] = diffs[7] + Form.monomial(7, mu, (5, 6))
    g = LieAlgebra("perturbed", 7, tuple(diffs[k] for k in range(1, 8)), "mu")
    assert jacobi_check(g) != []
    assert not g.substitute(Fraction(1)).is_valid
    assert g.substitute(Fraction(0)).is_valid


def test_bracket_values():
    heis = alg("heisenberg")
    assert bracket(heis, 1, 2) == -1 * Vec.basis(7, 5)
    assert bracket(heis, 2, 1) == Vec.basis(7, 5)
    assert bracket(heis, 1, 3).is_zero is False  # [e1,e3] = -e6
    g1 = alg("g1")
    assert bracket(g1, 1, 4) == 2 * Vec.basis(7, 4) - 2 * Vec.basis(7, 7)


def test_bracket_vec_bilinear():
    g = alg("g1")
    u = Vec(tuple(Fraction(c) for c in (1, 2, 0, -1, 0, 3, 0)))
    v = Vec(tuple(Fraction(c) for c in (0, 1, 1, 0, -2, 0, 1)))
    w = Vec(tuple(Fraction(c) for c in (2, 0, 0, 1, 1, 1, -1)))
    assert bracket_vec(g, u + w, v) == bracket_vec(g, u, v) + bracket_vec(g, w, v)
    assert bracket_vec(g, u, v) == -1 * bracket_vec(g, v, u)


# ---------------------------------------------------------------------------
# cohomology and series


def test_cohomology_abelian_binomials():
    zero2 = Form.zero(7, 2)
    abelian = LieAlgebra("abelian", 7, tuple(zero2 for _ in range(7)), None)
    for k in range(8):
        assert cohomology_dim(abelian, k) == math.comb(7, k)


def test_cohomology_heisenberg_low_degrees():
    g = alg("heisenberg")
    assert cohomology_dim(g, 0) == 1
    assert cohomology_dim(g, 1) == 4  # e1..e4 closed, none exact
    assert cohomology_dim(g, 7) == 1  # nilpotent algebras carry a top class


@pytest.mark.parametrize("name", ["g1", "g2", "heisenberg"])
def test_cohomology_euler_characteristic_vanishes(name):
    g = alg(name)
    betti = [cohomology_dim(g, k) for k in range(8)]
    assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0


def test_cohomology_top_vanishes_for_nonunimodular():
    # g1 has tr(ad_{e1}) = 2, so its top Chevalley-Eilenberg cohomology dies
    assert cohomology_dim(alg("g1"), 7) == 0
    assert cohomology_dim(alg("g1"), 8) == 0


def test_series_and_solvability():
    heis = derived_and_central_series(alg("heisenberg"))
    assert heis["derived"] == [7, 3, 0]
    assert heis["lower_central"] == [7, 3, 0]
    assert heis["is_nilpotent"] and heis["is_solvable"]

    g1 = derived_and_central_series(alg("g1"))
    assert g1["is_solvable"] and not g1["is_nilpotent"]
    assert g1["derived"][-1] == 0
    assert g1["lower_central"][-1] != 0


# ---------------------------------------------------------------------------
# plumbing


def test_monomials_and_coords():
    basis = monomials(4, 2)
    assert len(basis) == 6
    f = Form.monomial(4, Fraction(3), (1, 3)) - Form.monomial(4, Fraction(1), (2, 4))
    coords = form_coords(f, basis)
    assert coords[basis.index((1, 3))] == 3
    assert coords[basis.index((2, 4))] == -1
    with pytest.raises(ParametricNotSupported):
        form_coords(Form.monomial(4, variable("mu"), (1, 2)), basis)


def test_substitute_form():
    mu = variable("mu")
    f = Form.monomial(3, mu + 1, (1, 2)) + Form.monomial(3, Fraction(2), (1, 3))
    out = substitute_form(f, Fraction(-1))
    assert out == 2 * Form.monomial(3, Fraction(1), (1, 3))


def test_forms_refuse_bad_index_tuples_and_mixed_degrees():
    with pytest.raises(ValueError, match="bad index tuple"):
        Form.make(3, 2, {(1, 4): Fraction(1)})
    with pytest.raises(ValueError, match="bad index tuple"):
        Form.make(3, 2, {(1,): Fraction(1)})
    with pytest.raises(ValueError, match="not strictly increasing"):
        Form.make(3, 2, {(2, 1): Fraction(1)})
    with pytest.raises(ValueError, match="degree mismatch 1 != 2"):
        covector(3, 1) + Form.monomial(3, Fraction(1), (1, 2))


def test_dimension_cap():
    with pytest.raises(ValueError):
        LieAlgebra("big", MAX_DIM + 1, tuple(Form.zero(MAX_DIM + 1, 2) for _ in range(MAX_DIM + 1)), None)
