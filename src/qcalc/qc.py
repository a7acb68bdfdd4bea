"""Quaternionic contact frames on 7-dimensional Lie algebras.

A frame splits the basis indices into four horizontal and three vertical
ones v_r, with contact forms eta_r = e^{v_r} and Reeb vectors xi_r = e_{v_r},
and carries the fundamental 2-forms omega_r and the normalization scale
(d eta_r restricted to the horizontal block equals scale * omega_r).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property

from .errors import NotIntegrable, NotQuaternionic, ParametricNotSupported
from .exterior import Form, LieAlgebra, rescale_covectors
from .linalg import common_denominator, matmul, scaled
from .scalars import Poly, Scalar, Value, replace

Matrix4 = list[list[Scalar]]

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class QCFrame(Value):
    dim: int
    horizontal: tuple[int, int, int, int]
    vertical: tuple[int, int, int]
    omegas: tuple[Form, Form, Form]
    scale: Fraction

    @cached_property
    def complex_structures(self) -> tuple[Matrix4, Matrix4, Matrix4]:
        """The matrices of I_1, I_2, I_3, derived once per frame; read-only.

        omega_r(e_a, e_b) = -I_r[a][b].  Raises NotQuaternionic (on every
        read) when the omegas do not form a quaternionic triple.
        """
        return derive_complex_structures(self)


def derive_complex_structures(frame: QCFrame) -> tuple[Matrix4, Matrix4, Matrix4]:
    """4x4 matrices of I_r on horizontal positions, from g(I_r e_b, e_a) = omega_r(e_b, e_a).

    Checks I_r^2 = -id and I_1 I_2 = I_3 in plain ints on M_r = D I_r, D the
    least common denominator of the three: M_r^2 = -D^2 id and M_1 M_2 = D M_3.
    Orthogonality needs no check: I_r is read off a 2-form through
    `Form.pair`, so it is antisymmetric, and then I_r^t I_r = -I_r^2 = id.
    An I_r with a `Poly` entry fails I_r^2 = -id: the squares of each of its
    rows would be polynomials summing to 1, hence constants.
    """
    h = frame.horizontal
    mats = [[[om.pair(b, a) for b in h] for a in h] for om in frame.omegas]
    rational = [not any(isinstance(x, Poly) for row in m for x in row) for m in mats]
    d = common_denominator(x for m, ok in zip(mats, rational) if ok for row in m for x in row)
    ints = [scaled(m, d) if ok else None for m, ok in zip(mats, rational)]
    minus = [[-d * d if a == b else 0 for b in range(4)] for a in range(4)]
    for r, m in enumerate(ints):
        if m is None or matmul(m, m) != minus:
            raise NotQuaternionic(f"I_{r + 1}^2 != -id")
    m1, m2, m3 = ints
    if matmul(m1, m2) != [[d * x for x in row] for row in m3]:
        raise NotQuaternionic("I_1 I_2 != I_3")
    return mats[0], mats[1], mats[2]


def check_compatibility(g: LieAlgebra, frame: QCFrame) -> bool:
    """d eta_r restricted to horizontal pairs must equal scale * omega_r, scale
    nonzero: omega_r has no term off H and, with (E, C) the structure table,
    -C[a][b][v_r] = E * scale * omega_r(e_a, e_b) for every a < b in H.  Like
    structure_table, raises ParametricNotSupported for a parametric omega."""
    e, c = g.structure_table
    for r, om in enumerate(frame.omegas, 1):
        for x in om.terms.values():
            if isinstance(x, Poly):
                raise ParametricNotSupported(f"{g.name}: omega{r} carries parameter {x.var!r}; substitute a value first")
    h = frame.horizontal
    return frame.scale != 0 and all(
        all(x in h for k in om.terms for x in k)
        and all(-c[a - 1][b - 1][v - 1] == e * frame.scale * om.pair(a, b) for a, b in itertools.combinations(h, 2))
        for v, om in zip(frame.vertical, frame.omegas)
    )


def check_bi1(g: LieAlgebra, frame: QCFrame) -> tuple[bool, list[str]]:
    """The duality conditions on X -> d eta_k(xi_s, X) = -C[v_s][X][v_k] / E,
    X horizontal, in dim 7."""
    _, c = g.structure_table
    h, v = [x - 1 for x in frame.horizontal], [x - 1 for x in frame.vertical]
    violations = []
    for s in range(3):
        if any(c[v[s]][x][v[s]] for x in h):
            violations.append(f"(xi_{s + 1} . d eta_{s + 1})|_H != 0")
    for s in range(3):
        for k in range(s + 1, 3):
            if any(c[v[s]][x][v[k]] + c[v[k]][x][v[s]] for x in h):
                violations.append(
                    f"(xi_{s + 1} . d eta_{k + 1})|_H != -(xi_{k + 1} . d eta_{s + 1})|_H"
                )
    return not violations, violations


def adapt(g: LieAlgebra, frame: QCFrame) -> tuple[LieAlgebra, QCFrame]:
    """The one qc gate: the adapted pair (d eta_r|_H = 2 omega_r, omegas a
    quaternionic triple, the duality conditions hold) the pipeline takes.

    In order: `check_compatibility` fails with NotQuaternionic; a scale other
    than 2 is rebased by multiplying the vertical covectors by 2/scale, which
    changes no horizontal output and no duality verdict; reading
    `frame.complex_structures` raises NotQuaternionic for a triple that is not
    quaternionic (and caches them on the returned frame); `check_bi1` fails
    with NotIntegrable, its violations joined by "; ".
    """
    if not check_compatibility(g, frame):
        raise NotQuaternionic(f"{g.name}: d eta_r restricted to H is not {frame.scale} * omega_r")
    if frame.scale != 2:
        g = rescale_covectors(g, {v: Fraction(2) / frame.scale for v in frame.vertical})
        frame = replace(frame, scale=Fraction(2))
    frame.complex_structures
    ok, violations = check_bi1(g, frame)
    if not ok:
        raise NotIntegrable("; ".join(violations))
    return g, frame


def verdicts(run, g: LieAlgebra, frame: QCFrame):
    """(qc_valid, bi1, run(g, frame)) for a run that starts with `adapt`,
    the verdicts read off the exception it raises."""
    try:
        return True, True, run(g, frame)
    except NotQuaternionic:
        return False, None, None
    except NotIntegrable:
        return True, False, None


def fundamental_form(frame: QCFrame) -> Form:
    total = Form.zero(frame.dim, 4)
    for om in frame.omegas:
        total = total + om.wedge(om)
    return total


def d_fundamental_form(g: LieAlgebra, frame: QCFrame) -> Form:
    """d Omega through the antiderivation `LieAlgebra.d`.

    Omega has few monomials (6 e^{1234} in a standard frame), and `d` visits
    only those and the differentials of their indices, for Fraction and Poly
    coefficients alike.  Reading d Omega off `coefficient_tables` through the
    whole E * d_4 (35 x 21) gives the same Form at 5x the cost or more.
    """
    return g.d(fundamental_form(frame))


def vertical_integrable(g: LieAlgebra, frame: QCFrame) -> bool:
    """True when vertical brackets stay vertical."""
    _, table = g.structure_table
    return not any(
        table[a - 1][b - 1][x - 1]
        for a, b in itertools.combinations(frame.vertical, 2)
        for x in frame.horizontal
    )
