import itertools
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc.family import (
    ALL_VALUES,
    AllValues,
    fingerprint,
    jacobi_constraints,
    solve_family,
)
from qcalc.exterior import Form, LieAlgebra, rescale_covectors
from qcalc.parser import parse
from qcalc.scalars import Poly, poly_gcd, rational_roots, variable
from oracles import document, jacobi_check

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's input generator; it never imports qcalc)


def family():
    return document("prop31_family").algebra


def catalog_algebra(name):
    return document(name).algebra


def test_constraints_contain_the_quadratic_obstruction():
    fam = family()
    constraints = jacobi_constraints(fam)
    assert constraints
    # d(d e3) carries the quadratic obstruction; its roots are the admissible
    # parameter values
    obstruction = fam.d(fam.differential(3))
    coeffs = set()
    for c in obstruction.terms.values():
        assert isinstance(c, Poly)
        coeffs.add(tuple(c.coeffs))
        assert rational_roots(c) == {Fraction(-1), Fraction(-1, 3)}
    assert coeffs


def reference_constraints(fam):
    """Distinct nonzero coefficients of d(d e^k) for k = 1..n, in that order."""
    seen = {}
    for k in range(1, fam.dim + 1):
        for c in fam.d(fam.differential(k)).terms.values():
            key = tuple(x / c.coeffs[-1] for x in c.coeffs) if isinstance(c, Poly) else (1,)
            seen.setdefault(key, c)
    return list(seen.values())


@pytest.mark.parametrize("case", ["catalog", "rot1", "rot2", "two_obstructions"])
def test_jacobi_constraints_keep_the_d_squared_order(case):
    if case == "catalog":
        fam = family()
    elif case == "two_obstructions":
        # d(d e4) = -mu(mu - 1) e123 + mu e125: two constraints, not multiples
        mu = variable("mu")
        z = Form.zero(5, 2)
        e = lambda c, *idx: Form.monomial(5, c, idx)
        diffs = (z, z, e(Fraction(1), 1, 2), e(mu, 3, 5), e(mu - 1, 1, 2))
        fam = LieAlgebra("two_obstructions", 5, diffs, "mu")
        assert jacobi_constraints(fam) == [-mu * (mu - 1), mu]
    else:
        h = int(case[-1])
        text, _ = gen.rotated_input(random.Random(h), "prop31_family", h, "p31_rot")
        fam = parse(text).algebra
    constraints = jacobi_constraints(fam)
    assert constraints
    assert constraints == reference_constraints(fam)


def test_solve_family_roots():
    assert solve_family(family()) == {Fraction(-1), Fraction(-1, 3)}


def test_solve_family_all_values_marker():
    z = Form.zero(7, 2)
    abelian = LieAlgebra("abelian", 7, tuple(z for _ in range(7)), "mu")
    result = solve_family(abelian)
    assert isinstance(result, AllValues)
    assert result is ALL_VALUES
    assert repr(ALL_VALUES) == "AllValues"


def reference_solve(fam):
    """Common rational roots of `reference_constraints`, as `solve_family` reports them."""
    constraints = reference_constraints(fam)
    if not constraints:
        return ALL_VALUES
    if not all(isinstance(c, Poly) for c in constraints):
        return set()
    common = poly_gcd(constraints)
    return rational_roots(common) if isinstance(common, Poly) else set()


def obstructed(dim, **diffs):
    """A family over mu with d e^k = diffs["e<k>"], a dict {(i, j): coefficient}."""
    forms = tuple(Form.make(dim, 2, diffs.get(f"e{k}", {})) for k in range(1, dim + 1))
    return LieAlgebra("obstructed", dim, forms, "mu")


MU = variable("mu")
ONE = Fraction(1)
# d e3 = e12 and d e5 = p e12 give d(e35) = e125 - p e123
OBSTRUCTION_CASES = {
    # d(d e4) = mu (e125 - e123), d(d e6) = (mu - 1)(e125 - e123): coprime
    "coprime": (obstructed(6, e3={(1, 2): ONE}, e4={(3, 5): MU}, e5={(1, 2): ONE},
                           e6={(3, 5): MU - 1}), [-MU, -(MU - 1)], set()),
    # d(d e4) = e125 - e123 whatever mu is; d(d e5) = mu e1 ^ d e3 = 0
    "constant": (obstructed(5, e3={(1, 2): ONE}, e4={(3, 5): ONE}, e5={(1, 2): ONE, (1, 3): MU}),
                 [Fraction(-1)], set()),
    # a constant next to a polynomial obstruction still admits nothing
    "constant_and_poly": (obstructed(6, e3={(1, 2): ONE}, e4={(3, 5): ONE}, e5={(1, 2): ONE},
                                     e6={(3, 5): MU}), [Fraction(-1), -MU], set()),
    # d(d e4) = (2mu + 1)(e125 - (mu - 3) e123): the shared root -1/2
    "shared_root": (obstructed(5, e3={(1, 2): ONE}, e4={(3, 5): 2 * MU + 1},
                               e5={(1, 2): MU - 3}),
                    [-(2 * MU + 1) * (MU - 3), 2 * MU + 1], {Fraction(-1, 2)}),
}


@pytest.mark.parametrize("case", sorted(OBSTRUCTION_CASES))
def test_solve_family_obstructions(case):
    fam, constraints, roots = OBSTRUCTION_CASES[case]
    assert jacobi_constraints(fam) == constraints == reference_constraints(fam)
    result = solve_family(fam)
    assert isinstance(result, set) and result == roots


def test_specialize_at_roots_passes_jacobi():
    fam = family()
    for value in (Fraction(-1), Fraction(-1, 3)):
        g = fam.substitute(value)
        assert jacobi_check(g) == []
        assert g.param is None


def test_substitute_off_root_is_not_a_lie_algebra():
    for value in (Fraction(0), Fraction(1)):
        assert not family().substitute(value).is_valid


@pytest.mark.parametrize(
    "value,twin", [(Fraction(-1), "g1"), (Fraction(-1, 3), "g2")]
)
def test_rescaled_specializations_match_catalog(value, twin):
    g = family().substitute(value)
    doubled = rescale_covectors(g, {5: Fraction(2), 6: Fraction(2), 7: Fraction(2)})
    target = catalog_algebra(twin)
    for k in range(1, 8):
        assert doubled.differential(k) == target.differential(k)


def test_rescale_covectors_structure_constant_rule():
    g = catalog_algebra("heisenberg")
    scaled = rescale_covectors(g, {5: Fraction(3)})
    # d e5 = e12 + e34 becomes 3(e12 + e34) in the new coframe
    assert scaled.differential(5) == 3 * g.differential(5)
    assert scaled.differential(6) == g.differential(6)
    # rescaling a horizontal covector divides the terms it appears in
    scaled2 = rescale_covectors(g, {1: Fraction(2)})
    assert scaled2.differential(5).coeff((1, 2)) == Fraction(1, 2)
    assert scaled2.differential(5).coeff((3, 4)) == Fraction(1)


def test_rescale_roundtrip():
    g = catalog_algebra("g1")
    factors = {i: Fraction(5, 3) for i in range(1, 8)}
    inverse = {i: Fraction(3, 5) for i in range(1, 8)}
    back = rescale_covectors(rescale_covectors(g, factors), inverse)
    for k in range(1, 8):
        assert back.differential(k) == g.differential(k)


def test_fingerprints_distinguish_the_roots():
    f1 = fingerprint(family().substitute(Fraction(-1)))
    f2 = fingerprint(family().substitute(Fraction(-1, 3)))
    assert f1["betti"] == [1, 1, 2, 4, 2, 1, 1, 0]
    assert f2["betti"] == [1, 1, 0, 0, 0, 1, 1, 0]
    assert f1["betti"][2] == 2 and f2["betti"][2] == 0
    for f in (f1, f2):
        assert f["solvable"] is True
        assert f["nilpotent"] is False


def test_fingerprint_invariant_under_rescale():
    g = family().substitute(Fraction(-1))
    doubled = rescale_covectors(g, {5: Fraction(2), 6: Fraction(2), 7: Fraction(2)})
    assert fingerprint(doubled) == fingerprint(g)


def test_fingerprint_heisenberg():
    f = fingerprint(catalog_algebra("heisenberg"))
    assert f["betti"] == [1, 4, 11, 14, 14, 11, 4, 1]
    assert f["nilpotent"] is True
    assert f["solvable"] is True


# ---------------------------------------------------------------------------
# the Z[mu] coefficient tables against the Poly Form definitions

# coefficients are constants times up to two linear factors with small roots,
# so drawn obstructions share roots often enough to exercise the gcd
ROOTS = (Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(1, 2), Fraction(2))


def with_roots(c, roots):
    for r in roots:
        c = c * (MU - r)
    return c


coefficients = st.builds(
    with_roots,
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(lambda x: x != 0),
    st.lists(st.sampled_from(ROOTS), max_size=2),
)


@st.composite
def sparse_families(draw):
    dim = draw(st.integers(4, 7))
    pairs = list(itertools.combinations(range(1, dim + 1), 2))
    diffs = {
        f"e{k}": {p: draw(coefficients) for p in draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))}
        for k in range(1, dim + 1)
    }
    return obstructed(dim, **diffs)


@settings(max_examples=60, deadline=None)
@given(sparse_families())
def test_jacobi_constraints_match_d_squared_on_drawn_families(fam):
    assert jacobi_constraints(fam) == reference_constraints(fam)
    assert solve_family(fam) == reference_solve(fam)


@settings(max_examples=40, deadline=None)
@given(sparse_families(), st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_coefficient_tables_specialize_to_the_structure_table(fam, value):
    e, tables = fam.coefficient_tables
    assert len(tables) == 1 + max((c.degree for f in fam.differentials for c in f.terms.values()
                                   if isinstance(c, Poly)), default=0)
    e_value, table = fam.substitute(value).structure_table
    for a, b, c in itertools.product(range(fam.dim), repeat=3):
        at_value = sum(t[a][b][c] * value**d for d, t in enumerate(tables))
        assert Fraction(at_value, e) == Fraction(table[a][b][c], e_value), (a, b, c)


def test_a_rational_algebra_has_one_coefficient_table():
    g = catalog_algebra("g2")
    e, tables = g.coefficient_tables
    assert (e, tables) == (g.structure_table[0], [g.structure_table[1]])


@cache
def rotated_family(h):
    text, _ = gen.rotated_input(random.Random(f"rescale:{h}"), "prop31_family", h, "p31_rot")
    return parse(text).algebra


nonzero = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(lambda x: x != 0)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.lists(nonzero, min_size=7, max_size=7))
def test_rescaling_covectors_leaves_the_admissible_values(h, cs):
    fam = rescale_covectors(rotated_family(h), dict(zip(range(1, 8), cs)))
    assert solve_family(fam) == {Fraction(-1), Fraction(-1, 3)}
