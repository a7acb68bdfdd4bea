"""One-parameter families of structure equations.

Collects the polynomial constraints that d^2 = 0 imposes on the parameter,
solves for the admissible rational values, and fingerprints the algebras at
those values by cohomology dimensions and series behaviour.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exterior import LieAlgebra, betti_numbers, derived_and_central_series, jacobi_sum
from .scalars import Poly, Scalar, poly, poly_gcd, rational_roots


class AllValues:
    """Marker: the constraint set is empty, every parameter value works."""

    def __repr__(self) -> str:
        return "AllValues"


ALL_VALUES = AllValues()


def _normalized(c: Scalar) -> tuple:
    """Dedup key: coefficients scaled so the leading one is 1."""
    if isinstance(c, Poly):
        lead = c.coeffs[-1]
        return tuple(x / lead for x in c.coeffs)
    return (Fraction(1),)


def jacobi_constraints(fam: LieAlgebra) -> list[Scalar]:
    """Distinct nonzero coefficients of every d(d e^k), up to rational multiples.

    With the coefficient tables (E, [C_0, ..., C_D]), the e^{abc} coefficient
    of d(d e^k) is J_k / E^2, where J = Sum_s mu^s Sum_{d+d'=s}
    jacobi_sum(C_d, C_d', a, b, c); they are listed in d(d e^k) order.
    """
    e, tables = fam.coefficient_tables
    var = next((c.var for f in fam.differentials for c in f.terms.values() if isinstance(c, Poly)), None)
    sums = []  # per a < b < c: the mu^s coefficient of J, one entry per k
    for abc in itertools.combinations(range(fam.dim), 3):
        by_power = [[0] * fam.dim for _ in range(2 * len(tables) - 1)]
        for (d, s), (d2, t) in itertools.product(enumerate(tables), repeat=2):
            by_power[d + d2] = [x + y for x, y in zip(by_power[d + d2], jacobi_sum(s, t, *abc))]
        sums.append(by_power)
    seen: dict[tuple, Scalar] = {}
    for k in range(fam.dim):
        for by_power in sums:
            if any(j[k] for j in by_power):
                c = poly(var, *(Fraction(j[k], e * e) for j in by_power))
                seen.setdefault(_normalized(c), c)
    return list(seen.values())


def solve_family(fam: LieAlgebra) -> set[Fraction] | AllValues:
    """Common rational roots of all constraints; AllValues when there are none.

    The common roots are the roots of the constraints' gcd, found once.
    """
    constraints = jacobi_constraints(fam)
    if not constraints:
        return ALL_VALUES
    if not all(isinstance(c, Poly) for c in constraints):
        return set()  # a nonzero constant constraint admits nothing
    common = poly_gcd(constraints)
    return rational_roots(common) if isinstance(common, Poly) else set()


def fingerprint(g: LieAlgebra) -> dict:
    """Basis-invariant distinguishing data: Betti numbers plus series flags."""
    series = derived_and_central_series(g)
    return {
        "betti": betti_numbers(g),
        "nilpotent": series["is_nilpotent"],
        "solvable": series["is_solvable"],
    }
