"""Quaternionic contact frames on 7-dimensional Lie algebras.

A frame splits the basis into four horizontal and three vertical directions,
fixes the contact forms eta_r and Reeb vectors xi_r, and carries the triple of
fundamental 2-forms omega_r together with the normalization scale (d eta_r
restricted to the horizontal block equals scale * omega_r).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import NotQuaternionic
from .exterior import Form, LieAlgebra, Vec, scaled_bracket
from .scalars import Scalar

Matrix4 = list[list[Scalar]]


@dataclass(frozen=True)
class QCFrame:
    dim: int
    horizontal: tuple[int, int, int, int]
    vertical: tuple[int, int, int]
    etas: tuple[Form, Form, Form]
    xis: tuple[Vec, Vec, Vec]
    omegas: tuple[Form, Form, Form]
    scale: Fraction

    def hvec(self, pos: int) -> Vec:
        """Horizontal basis vector by position 0..3."""
        return Vec.basis(self.dim, self.horizontal[pos])

    @cached_property
    def complex_structures(self) -> tuple[Matrix4, Matrix4, Matrix4]:
        """The matrices of I_1, I_2, I_3, derived once per frame; read-only.

        omega_r(e_a, e_b) = -I_r[a][b].  Raises NotQuaternionic (on every
        read) when the omegas do not form a quaternionic triple.
        """
        return derive_complex_structures(self)


def standard_omegas(dim: int, h: tuple[int, int, int, int]) -> tuple[Form, Form, Form]:
    def two(a: int, b: int, c: int, d: int) -> Form:
        return Form.monomial(dim, Fraction(1), (a, b)) + Form.monomial(dim, Fraction(1), (c, d))

    return (
        two(h[0], h[1], h[2], h[3]),
        two(h[0], h[2], h[3], h[1]),
        two(h[0], h[3], h[1], h[2]),
    )


def standard_frame(
    dim: int = 7,
    horizontal: tuple[int, int, int, int] = (1, 2, 3, 4),
    vertical: tuple[int, int, int] = (5, 6, 7),
    scale: Fraction = Fraction(2),
    omegas: tuple[Form, Form, Form] | None = None,
) -> QCFrame:
    etas = tuple(Form.covector(dim, v) for v in vertical)
    xis = tuple(Vec.basis(dim, v) for v in vertical)
    if omegas is None:
        omegas = standard_omegas(dim, horizontal)
    return QCFrame(dim, tuple(horizontal), tuple(vertical), etas, xis, omegas, Fraction(scale))


def restrict_h(f: Form, frame: QCFrame) -> Form:
    """Drop every term that touches a vertical index."""
    vert = set(frame.vertical)
    return Form.make(
        f.dim, f.degree, {k: c for k, c in f.terms.items() if not vert & set(k)}
    )


def derive_complex_structures(frame: QCFrame) -> tuple[Matrix4, Matrix4, Matrix4]:
    """4x4 matrices of I_r on horizontal positions, from g(I_r e_b, e_a) = omega_r(e_b, e_a)."""
    mats = []
    for om in frame.omegas:
        m = [
            [om.evaluate([frame.hvec(b), frame.hvec(a)]) for b in range(4)]
            for a in range(4)
        ]
        mats.append(m)
    m1, m2, m3 = mats
    minus_id = [[Fraction(-1 if a == b else 0) for b in range(4)] for a in range(4)]
    for r, m in enumerate(mats):
        if matmul(m, m) != minus_id:
            raise NotQuaternionic(f"I_{r + 1}^2 != -id")
    if matmul(m1, m2) != m3:
        raise NotQuaternionic("I_1 I_2 != I_3")
    for m in mats:
        mt = [[m[b][a] for b in range(4)] for a in range(4)]
        if matmul(mt, m) != [[Fraction(1 if a == b else 0) for b in range(4)] for a in range(4)]:
            raise NotQuaternionic("I_r is not orthogonal")
    return m1, m2, m3


def matmul(x: Matrix4, y: Matrix4) -> Matrix4:
    """Product of square matrices of any size, over Fractions or plain ints."""
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def apply_endo(m: Matrix4, comps: list[Scalar]) -> list[Scalar]:
    """Apply a horizontal endomorphism to horizontal components."""
    return [
        sum((m[a][b] * comps[b] for b in range(4)), Fraction(0)) for a in range(4)
    ]


def hcomps(frame: QCFrame, v: Vec) -> list[Scalar]:
    return [v.comp(i) for i in frame.horizontal]


def from_hcomps(frame: QCFrame, comps: list[Scalar]) -> Vec:
    out = [Fraction(0)] * frame.dim
    for i, c in zip(frame.horizontal, comps):
        out[i - 1] = c
    return Vec(tuple(out))


def hcolumn(frame: QCFrame, m: Matrix4, b: int) -> Vec:
    """Column b of a horizontal matrix: the image of e_b as a vector."""
    return from_hcomps(frame, [row[b] for row in m])


def check_compatibility(g: LieAlgebra, frame: QCFrame) -> bool:
    """d eta_r restricted to horizontal pairs must equal scale * omega_r."""
    for eta, om in zip(frame.etas, frame.omegas):
        if restrict_h(g.d(eta), frame) != frame.scale * om:
            return False
    return True


def check_bi1(g: LieAlgebra, frame: QCFrame) -> tuple[bool, list[str]]:
    """The three conditions making the canonical connection exist in dim 7."""
    violations = []
    d_etas = [g.d(eta) for eta in frame.etas]
    for s in range(3):
        for k in range(3):
            val = frame.etas[s].evaluate([frame.xis[k]])
            if val != (1 if s == k else 0):
                violations.append(f"eta_{s + 1}(xi_{k + 1}) != {'1' if s == k else '0'}")
    for s in range(3):
        if not restrict_h(d_etas[s].interior(frame.xis[s]), frame).is_zero:
            violations.append(f"(xi_{s + 1} . d eta_{s + 1})|_H != 0")
    for s in range(3):
        for k in range(s + 1, 3):
            lhs = restrict_h(d_etas[k].interior(frame.xis[s]), frame)
            rhs = restrict_h(d_etas[s].interior(frame.xis[k]), frame)
            if not (lhs + rhs).is_zero:
                violations.append(
                    f"(xi_{s + 1} . d eta_{k + 1})|_H != -(xi_{k + 1} . d eta_{s + 1})|_H"
                )
    return not violations, violations


def adapted_shape(g: LieAlgebra, frame: QCFrame) -> tuple[Form, Form, Form] | None:
    """Extract the horizontal 1-forms f_1, f_2, f_3 of the adapted coframe shape.

    d eta_i must decompose as scale*omega_i + f_j ^ eta_k - f_k ^ eta_j modulo
    purely vertical 2-forms, with (i, j, k) cyclic.  Returns None when the
    pattern does not match.
    """
    hset = set(frame.horizontal)
    found: list[list[Form | None]] = [[None] * 3 for _ in range(3)]
    for i in range(3):
        dd = g.d(frame.etas[i])
        if restrict_h(dd, frame) != frame.scale * frame.omegas[i]:
            return None
        mixed: dict[int, Form] = {}
        for key, c in dd.terms.items():
            a, b = key
            if a in hset and b in frame.vertical:
                pos, coef, h = frame.vertical.index(b), c, a
            elif a in frame.vertical and b in hset:
                pos, coef, h = frame.vertical.index(a), -c, b
            else:
                continue
            mixed[pos] = mixed.get(pos, Form.zero(g.dim, 1)) + Form.make(
                g.dim, 1, {(h,): coef}
            )
        j, k = (i + 1) % 3, (i + 2) % 3
        zero1 = Form.zero(g.dim, 1)
        if not mixed.get(i, zero1).is_zero:
            return None
        found[j][i] = mixed.get(k, zero1)
        found[k][i] = -mixed.get(j, zero1)
    fs = []
    for r in range(3):
        candidates = [f for f in found[r] if f is not None]
        if candidates[0] != candidates[1]:
            return None
        fs.append(candidates[0])
    return fs[0], fs[1], fs[2]


def fundamental_form(frame: QCFrame) -> Form:
    total = Form.zero(frame.dim, 4)
    for om in frame.omegas:
        total = total + om.wedge(om)
    return total


def d_fundamental_form(g: LieAlgebra, frame: QCFrame) -> Form:
    return g.d(fundamental_form(frame))


def vertical_integrable(g: LieAlgebra, frame: QCFrame) -> bool:
    """True when vertical brackets stay vertical."""
    _, table = g.structure_table
    for i in range(3):
        for j in range(i + 1, 3):
            br = scaled_bracket(table, frame.xis[i].comps, frame.xis[j].comps)
            if any(br[h - 1] for h in frame.horizontal):
                return False
    return True
