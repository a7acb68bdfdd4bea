import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qcalc.catalog import document
from qcalc.errors import NotALieAlgebra
from qcalc.family import (
    ALL_VALUES,
    AllValues,
    fingerprint,
    jacobi_constraints,
    rescale_covectors,
    solve_family,
    specialize,
)
from qcalc.exterior import Form, LieAlgebra
from qcalc.parser import parse
from qcalc.scalars import Poly, rational_roots, variable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's input generator; it never imports qcalc)


def family():
    return document("prop31_family").to_algebra()


def catalog_algebra(name):
    return document(name).to_algebra()


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
        fam = parse(text).to_algebra()
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


def test_solve_family_no_common_root():
    # two differentials whose obstructions have disjoint root sets
    from qcalc.scalars import variable

    mu = variable("mu")
    z = Form.zero(7, 2)
    diffs = [z] * 7
    diffs[4] = Form.monomial(7, mu, (1, 2)) + Form.monomial(7, Fraction(1), (3, 4))
    diffs[5] = Form.monomial(7, mu - 1, (1, 3))
    diffs[6] = Form.monomial(7, mu + 1, (1, 4))
    # d^2 e5 != 0 unless a bracket cancellation happens; build directly and
    # just require the solver returns a set (possibly empty) without raising
    fam = LieAlgebra("synthetic", 7, tuple(diffs), "mu")
    result = solve_family(fam)
    assert result == set() or isinstance(result, (set, AllValues))


def test_specialize_at_roots_passes_jacobi():
    fam = family()
    for value in (Fraction(-1), Fraction(-1, 3)):
        g = specialize(fam, value)
        assert g.jacobi_check() == []
        assert g.param is None


def test_specialize_off_root_raises():
    with pytest.raises(NotALieAlgebra):
        specialize(family(), Fraction(0))
    with pytest.raises(NotALieAlgebra):
        specialize(family(), Fraction(1))


@pytest.mark.parametrize(
    "value,twin", [(Fraction(-1), "g1"), (Fraction(-1, 3), "g2")]
)
def test_rescaled_specializations_match_catalog(value, twin):
    g = specialize(family(), value)
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
    f1 = fingerprint(specialize(family(), Fraction(-1)))
    f2 = fingerprint(specialize(family(), Fraction(-1, 3)))
    assert f1["betti"] == [1, 1, 2, 4, 2, 1, 1, 0]
    assert f2["betti"] == [1, 1, 0, 0, 0, 1, 1, 0]
    assert f1["betti"][2] == 2 and f2["betti"][2] == 0
    for f in (f1, f2):
        assert f["solvable"] is True
        assert f["nilpotent"] is False


def test_fingerprint_invariant_under_rescale():
    g = specialize(family(), Fraction(-1))
    doubled = rescale_covectors(g, {5: Fraction(2), 6: Fraction(2), 7: Fraction(2)})
    assert fingerprint(doubled) == fingerprint(g)


def test_fingerprint_heisenberg():
    f = fingerprint(catalog_algebra("heisenberg"))
    assert f["betti"] == [1, 4, 11, 14, 14, 11, 4, 1]
    assert f["nilpotent"] is True
    assert f["solvable"] is True
