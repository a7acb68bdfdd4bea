"""The integer structure table against the Form definitions it replaced.

`LieAlgebra.structure_table` feeds the Jacobi check, the d_j matrices of the
Betti numbers, the derived and lower central series and every bracket of a
rational algebra.  The references here are the Form-based definitions:
d_j through `g.d` on unit forms, Jacobi as d(d e^k) = 0, brackets as sums of
`bracket(g, i, j)`, and the series through those brackets and a Fraction
elimination written in the test.  d Omega goes the other way: the package
takes it through `g.d`, and the reference reads it off the tables.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc import linalg
from qcalc.biquard import assemble_torsion
from qcalc.errors import ParametricNotSupported
from qcalc.exterior import (
    Form,
    LieAlgebra,
    Vec,
    _weight_split,
    betti_numbers,
    cohomology_dim,
    derived_and_central_series,
    monomials,
    scaled_bracket,
)
from qcalc.family import rescale_covectors
from qcalc.parser import parse
from qcalc.qc import d_fundamental_form, standard_frame
from qcalc.scalars import variable
from oracles import (
    bracket,
    d_fundamental_form_from_tables,
    differential_matrix,
    document,
    form_coords,
    full_complex_betti,
    jacobi_check,
)
from test_conformal import G2_ROTATED, PIPELINE_CASES
from test_exterior import bracket_vec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's input generator; it never imports qcalc)

NON_LIE = """\
algebra nonlie dim 7
d e1 = 0
d e2 = 0
d e3 = 0
d e4 = 0
d e5 = e12 + e34
d e6 = e13 + e42
d e7 = e14 + e23 + e56
"""


def case_algebra(name, mu=None):
    g = parse(G2_ROTATED).algebra if name == "g2_rot" else document(name).algebra
    return g.substitute(Fraction(mu)) if mu is not None else g


def rotated_document(source, h):
    text, _ = gen.rotated_input(random.Random(100 * h + len(source)), source, h, f"{source}_h{h}")
    return parse(text)


def rotated_algebra(source, h):
    g = rotated_document(source, h).algebra
    return g.substitute(Fraction(-1)) if g.parametric else g


CASES = [*(f"{n}@{mu}" for n, mu in PIPELINE_CASES)] + [
    f"rot:{src}:{h}" for h in (1, 2, 3) for src in ("g1", "g2", "heisenberg", "prop31_family")
]


def algebra(case):
    if case.startswith("rot:"):
        _, src, h = case.split(":")
        return rotated_algebra(src, int(h))
    name, mu = case.split("@")
    return case_algebra(name, None if mu == "None" else mu)


def non_lie():
    return parse(NON_LIE).algebra


# ---------------------------------------------------------------------------
# Form-based references


def reference_d_matrix(g, j):
    """Rows of d(e^I) over the (j+1)-monomials, through the Form antiderivation g.d."""
    target = monomials(g.dim, j + 1)
    return [
        form_coords(g.d(Form.make(g.dim, j, {key: Fraction(1)})), target)
        for key in monomials(g.dim, j)
    ]


def fraction_rank(rows):
    """Rank by plain Fraction Gaussian elimination."""
    m = [list(r) for r in rows if any(c != 0 for c in r)]
    rank, ncols = 0, len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def fraction_basis(rows):
    """A basis of the span of rows, by Fraction elimination."""
    basis = []
    for r in rows:
        if fraction_rank(basis + [r]) > len(basis):
            basis.append(r)
    return basis


def reference_series(g):
    """The derived and lower central series through bracket_vec and Fraction spans."""
    n = g.dim
    full = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def span_bracket(a_rows, b_rows):
        prods = [bracket_vec(g, Vec(tuple(u)), Vec(tuple(v))).comps for u in a_rows for v in b_rows]
        return fraction_basis([list(p) for p in prods])

    def run(next_term):
        dims, current = [n], full
        while True:
            new = next_term(current)
            if len(new) == len(current):
                return dims
            dims.append(len(new))
            current = new
            if not new:
                return dims

    derived = run(lambda cur: span_bracket(cur, cur))
    lower = run(lambda cur: span_bracket(full, cur))
    return {
        "derived": derived,
        "lower_central": lower,
        "is_solvable": derived[-1] == 0,
        "is_nilpotent": lower[-1] == 0,
    }


# ---------------------------------------------------------------------------
# entry by entry


@pytest.mark.parametrize("case", CASES + ["non-lie"])
def test_structure_table_matches_basis_brackets(case):
    g = non_lie() if case == "non-lie" else algebra(case)
    e, table = g.structure_table
    assert e > 0 and all(isinstance(x, int) for a in table for b in a for x in b)
    n = g.dim
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            want = bracket_vec(g, Vec.basis(n, a), Vec.basis(n, b))
            assert [Fraction(x, e) for x in table[a - 1][b - 1]] == list(want.comps)


@pytest.mark.parametrize("case", CASES[:6] + CASES[-4:] + ["non-lie"])
def test_scaled_bracket_matches_bracket_vec(case):
    g = non_lie() if case == "non-lie" else algebra(case)
    e, table = g.structure_table
    rng = random.Random(7)
    for _ in range(5):
        u, v = (
            Vec(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(g.dim)))
            for _ in range(2)
        )
        got = [x / e for x in scaled_bracket(table, u.comps, v.comps)]
        assert got == list(bracket_vec(g, u, v).comps)


@pytest.mark.parametrize("case", CASES + ["non-lie"])
def test_differential_matrices_match_form_antiderivation(case):
    g = non_lie() if case == "non-lie" else algebra(case)
    e, _ = g.structure_table
    for j in range(g.dim + 1):
        got = differential_matrix(g, j)
        assert [[Fraction(x, e) for x in row] for row in got] == reference_d_matrix(g, j)


@pytest.mark.parametrize("case", CASES + ["non-lie"])
def test_jacobi_matches_d_squared(case):
    g = non_lie() if case == "non-lie" else algebra(case)
    assert g.is_valid == (jacobi_check(g) == [])
    assert g.is_valid == (case != "non-lie")


@pytest.mark.parametrize("case", CASES)
def test_betti_numbers_and_series_match_references(case):
    g = algebra(case)
    ranks = [0] + [fraction_rank(reference_d_matrix(g, j)) for j in range(g.dim)] + [0]
    betti = [len(monomials(g.dim, k)) - ranks[k + 1] - ranks[k] for k in range(g.dim + 1)]
    assert betti_numbers(g) == betti
    assert [cohomology_dim(g, k) for k in range(g.dim + 1)] == betti
    assert derived_and_central_series(g) == reference_series(g)


def test_non_lie_input_is_rejected_by_both_paths():
    g = non_lie()
    assert jacobi_check(g) != []
    assert not g.is_valid
    # the differentials of a non-Lie input do not compose to zero on either path
    d1 = differential_matrix(g, 1)
    d2 = differential_matrix(g, 2)
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*d2)] for row in d1]
    assert any(any(row) for row in product)


def reference_torsion_slot(g, frame, endos, s_value, a, b):
    """One slot of the assembled torsion, from g.bracket and bracket_vec."""
    n = g.dim

    def part(v, keep):
        return Vec(tuple(v.comp(i) if i in keep else Fraction(0) for i in range(1, n + 1)))

    h, v = frame.horizontal, frame.vertical
    if a in h and b in h:
        return -part(bracket(g, a, b), v)
    if a in v and b in v:
        i, j = v.index(a), v.index(b)
        sign = 1 if (i, j) in ((0, 1), (1, 2), (2, 0)) else -1
        return (-sign * s_value) * Vec.basis(n, v[3 - i - j]) - part(
            bracket_vec(g, Vec.basis(n, v[i]), Vec.basis(n, v[j])), h
        )
    hh, vv = (a, b) if a in h else (b, a)
    col = [row[h.index(hh)] for row in endos[v.index(vv)]]
    t_of_h = Vec(tuple(col[h.index(i)] if i in h else Fraction(0) for i in range(1, n + 1)))
    return t_of_h if a in v else -t_of_h


@pytest.mark.parametrize("case", ["vertical-bracket", "g2@None", "rot:g2:2"])
def test_assembled_torsion_matches_bracket_definition(case):
    if case == "vertical-bracket":
        # d e1 = e56 and d e5 = 2 e12: [xi_1, xi_2] = -e1 is horizontal
        z = Form.zero(7, 2)
        diffs = [Form.monomial(7, Fraction(1), (5, 6))] + [z] * 6
        diffs[4] = Form.monomial(7, Fraction(2), (1, 2))
        g = LieAlgebra("vb", 7, tuple(diffs), None)
    else:
        g = algebra(case)
    frame = standard_frame()
    rng = random.Random(3)
    endos = [[[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)]
             for _ in range(3)]
    s_value = Fraction(-3, 7)
    torsion = assemble_torsion(g, frame, endos, s_value)
    for a in range(1, g.dim + 1):
        for b in range(a + 1, g.dim + 1):
            assert torsion.value(a, b) == reference_torsion_slot(g, frame, endos, s_value, a, b), (a, b)
            assert torsion.value(b, a) == -torsion.value(a, b), (a, b)
    if case == "vertical-bracket":
        assert torsion.value(5, 6).comp(1) != 0


def test_structure_table_requires_a_rational_algebra():
    fam = document("prop31_family").algebra
    with pytest.raises(ParametricNotSupported):
        fam.structure_table
    with pytest.raises(ParametricNotSupported):
        fam.is_valid
    assert jacobi_check(fam) != []  # the Form diagnostic still works on families


# ---------------------------------------------------------------------------
# d Omega: the antiderivation against the coefficient tables


MU = variable("mu")

D_OMEGA_CASES = ["heisenberg", "g1", "g2", "prop31_family", "prop31_family@-1", "prop31_family@-1/3", "g2_rot"] + [
    f"rot:{src}:{h}" for h in (1, 2, 3) for src in ("g1", "g2", "prop31_family")
]


def algebra_and_frame(case):
    """A catalog entry, specialized after '@', or a gen.py rotation; families stay
    unspecialized, so their coefficients are Polys in mu."""
    if case.startswith("rot:"):
        _, src, h = case.split(":")
        doc = rotated_document(src, int(h))
        return doc.algebra, doc.frame
    name, _, mu = case.partition("@")
    doc = parse(G2_ROTATED) if name == "g2_rot" else document(name)
    return (doc.algebra.substitute(Fraction(mu)) if mu else doc.algebra), doc.frame


def with_vertical_brackets(g):
    """g with horizontal parts in [xi_1, xi_2] and [xi_2, xi_3], quadratic in mu:
    no longer a Lie algebra, but d Omega != 0 with Poly coefficients."""
    diffs = list(g.differentials)
    diffs[0] = diffs[0] + Form.monomial(g.dim, 1 - MU * MU, (5, 6))
    diffs[1] = diffs[1] + Form.monomial(g.dim, MU, (6, 7))
    return LieAlgebra(g.name, g.dim, tuple(diffs), "mu")


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("case", D_OMEGA_CASES)
def test_d_fundamental_form_matches_the_coefficient_tables(case, perturbed):
    g, frame = algebra_and_frame(case)
    if perturbed:
        g = with_vertical_brackets(g)
    got = d_fundamental_form(g, frame)
    assert got == d_fundamental_form_from_tables(g, frame)
    assert got.is_zero != perturbed
    assert got.parametric == perturbed


def test_d_fundamental_form_of_a_vertical_bracket_matches_the_tables():
    # criterion 3's perturbed algebra: d e1 = e56, so [xi_1, xi_2] = -e1
    diffs = [Form.monomial(7, Fraction(1), (5, 6))] + [Form.zero(7, 2)] * 6
    g, frame = LieAlgebra("perturbed", 7, tuple(diffs), None), standard_frame()
    got = d_fundamental_form(g, frame)
    assert not got.is_zero
    assert got == d_fundamental_form_from_tables(g, frame)


def test_structure_table_is_computed_once_per_algebra():
    g = case_algebra("g2")
    assert g.structure_table is g.structure_table


# ---------------------------------------------------------------------------
# metamorphic: rescaling the coframe changes no invariant


CATALOG = [("g1", None), ("g2", None), ("heisenberg", None), ("prop31_family", "-1"),
           ("prop31_family", "-1/3")]

factors = st.lists(
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4).filter(lambda x: x != 0),
    min_size=7,
    max_size=7,
)


@settings(max_examples=15, deadline=None)
@given(factors)
def test_rescaling_covectors_preserves_the_invariants(cs):
    scale = dict(zip(range(1, 8), cs))
    for name, mu in CATALOG:
        g = case_algebra(name, mu)
        h = rescale_covectors(g, scale)
        assert h.is_valid and g.is_valid
        assert betti_numbers(h) == betti_numbers(g)
        assert derived_and_central_series(h) == derived_and_central_series(g)
    bad = rescale_covectors(non_lie(), scale)
    assert not bad.is_valid
    assert jacobi_check(bad) != []


def test_rescaling_stresses_the_common_denominator():
    # c_k / (c_i c_j) has the factor 97 in its denominator
    g = rescale_covectors(case_algebra("g2"), {k: Fraction(97 * k, k + 1) for k in range(1, 8)})
    e, _ = g.structure_table
    assert e % 97 == 0
    assert betti_numbers(g) == betti_numbers(case_algebra("g2"))



# ---------------------------------------------------------------------------
# Betti numbers from the weight-zero subcomplex, against the whole complex


def from_brackets(dim, brackets):
    """The algebra with [e_a, e_b] = Sum_c x_c e_c for each (a, b): {c: x_c}, a < b."""
    terms = [{} for _ in range(dim)]
    for (a, b), image in brackets.items():
        for c, x in image.items():
            terms[c - 1][(a, b)] = terms[c - 1].get((a, b), 0) - Fraction(x)
    return LieAlgebra("t", dim, tuple(Form.make(dim, 2, t) for t in terms), None)


def change_basis(g, q):
    """g in the basis e'_a = Sum_c q[c][a] e_c, for an invertible rational q."""
    n = g.dim
    inverse, _ = linalg.rref([list(row) + [Fraction(int(i == k)) for k in range(n)] for i, row in enumerate(q)])
    p = [row[n:] for row in inverse]
    cols = [Vec(tuple(q[c][a] for c in range(n))) for a in range(n)]
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            old = bracket_vec(g, cols[a], cols[b]).comps
            brackets[(a + 1, b + 1)] = {k + 1: sum(x * y for x, y in zip(p[k], old)) for k in range(n)}
    return from_brackets(n, brackets)


def weighted(g):
    """Whether the Betti numbers of g come from a proper weight-zero subcomplex."""
    return any(_weight_split(g)[1])


small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def semidirect_products(draw):
    """R x| n: X acts on an abelian part with rational weights, one Jordan block
    of size 2 if drawn, and on a Heisenberg part p, q, z = [p, q] if drawn;
    the basis is shuffled, so X need not come first."""
    k = draw(st.integers(1, 4))
    heis = draw(st.booleans())
    dim = 1 + k + 3 * heis
    pos = draw(st.permutations(range(1, dim + 1)))  # pos[i]: where logical index i sits
    lams = draw(st.lists(small, min_size=k, max_size=k))
    jordan = k >= 2 and draw(st.booleans())
    brackets = {}

    def put(a, b, image):
        (a, b), sign = ((pos[a], pos[b]), 1) if pos[a] < pos[b] else ((pos[b], pos[a]), -1)
        brackets[(a, b)] = {pos[c]: sign * x for c, x in image.items()}

    for i, lam in enumerate(lams, start=1):
        put(0, i, {i: lam})
    if jordan:  # [X, y_2] = lam_1 y_2 + y_1
        put(0, 2, {2: lams[0], 1: 1})
    if heis:
        alpha, beta = draw(small), draw(small)
        p, q, z = k + 1, k + 2, k + 3
        put(0, p, {p: alpha})
        put(0, q, {q: beta})
        put(0, z, {z: alpha + beta})
        put(p, q, {z: 1})
    return from_brackets(dim, brackets)


def invertible(n):
    return st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n).filter(
        lambda rows: linalg.rank(rows) == n
    )


@settings(max_examples=40, deadline=None)
@given(semidirect_products())
def test_weight_zero_betti_numbers_on_semidirect_products(g):
    assert g.is_valid
    betti = full_complex_betti(g)
    assert betti_numbers(g) == betti
    assert [cohomology_dim(g, k) for k in range(g.dim + 1)] == betti


@settings(max_examples=15, deadline=None)
@given(semidirect_products(), st.data())
def test_weight_zero_betti_numbers_in_a_dense_basis(g, data):
    rows = data.draw(invertible(g.dim))
    h = change_basis(g, [[Fraction(x) for x in row] for row in rows])
    assert betti_numbers(h) == full_complex_betti(h) == betti_numbers(g)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["g1", "g2"]), invertible(7))
def test_weight_zero_betti_numbers_under_coframe_changes(name, rows):
    g = case_algebra(name)
    h = change_basis(g, [[Fraction(x) for x in row] for row in rows])
    assert h.is_valid and weighted(h)
    assert betti_numbers(h) == full_complex_betti(h) == betti_numbers(g)


def test_weight_zero_path_needs_generalized_eigenvectors():
    # [X, y1] = 2 y1, [X, y2] = 2 y2 + y1, [X, y3] = -4 y3: ad X has a Jordan block
    g = from_brackets(4, {(1, 2): {2: 2}, (1, 3): {3: 2, 2: 1}, (1, 4): {4: -4}})
    assert weighted(g)
    assert betti_numbers(g) == full_complex_betti(g) == [1, 1, 0, 1, 1]


def test_weight_zero_path_takes_a_later_basis_element():
    # e1, e2 span the nilradical; only ad e3 has a nonzero eigenvalue
    g = from_brackets(3, {(1, 3): {1: -1}, (2, 3): {2: -2}})
    _, cp = linalg.char_poly([[g.structure_table[1][0][b][c] for b in range(3)] for c in range(3)])
    assert cp == [0, 0, 0, 1]
    assert weighted(g)
    assert betti_numbers(g) == full_complex_betti(g) == [1, 1, 0, 0]


@pytest.mark.parametrize("case", ["sqrt2", "heisenberg"])
def test_weight_zero_path_falls_back_to_the_whole_complex(case):
    if case == "sqrt2":
        # ad X = [[0, 2], [1, 0]] on y1, y2: eigenvalues +-sqrt(2), no rational split
        g = from_brackets(3, {(1, 2): {3: 1}, (1, 3): {2: 2}})
    else:
        g = case_algebra("heisenberg")
    assert not weighted(g)
    assert betti_numbers(g) == full_complex_betti(g)
    assert [cohomology_dim(g, k) for k in range(g.dim + 1)] == full_complex_betti(g)
