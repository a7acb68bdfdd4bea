"""The canonical connection pipeline on a qc Lie algebra.

Order of play: sp(1)-connection 1-forms with the scalar curvature left
symbolic, horizontal Ricci 2-forms, exact solve for the scalar, horizontal
torsion tensor and the three torsion endomorphisms, full torsion, Christoffel
coefficients (Levi-Civita then the torsion-corrected canonical connection),
curvature, and a self-consistency audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InconsistentCurvature,
    InconsistentTorsion,
    InternalError,
    NotIntegrable,
    NotQuaternionic,
)
from .exterior import Form, LieAlgebra, Vec, dot, require_rational, substitute_form
from .qc import (
    Matrix4,
    QCFrame,
    apply_endo,
    check_bi1,
    check_compatibility,
    from_hcomps,
    hcolumn,
    hcomps,
    matmul,
    restrict_h,
)
from .scalars import Poly, Scalar, is_zero, linear_coeffs, solve_linear, variable

S_NAME = "S"

CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def sp1_connection_forms(g: LieAlgebra, frame: QCFrame) -> tuple[Form, Form, Form]:
    """The three connection 1-forms, coefficients affine in the symbolic scalar.

    Horizontal values: alpha_i(X) = d eta_k(xi_j, X).  Vertical values carry
    the unknown scalar: alpha_i(xi_s) = d eta_s(xi_j, xi_k) minus, on the
    diagonal s = i, half the scalar plus half the cyclic sum of the
    d eta_r(xi_j, xi_k).
    """
    ok, violations = check_bi1(g, frame)
    if not ok:
        raise NotIntegrable("; ".join(violations))
    s_sym = variable(S_NAME)
    d_etas = [g.d(eta) for eta in frame.etas]
    cyc_sum: Scalar = Fraction(0)
    for i, j, k in CYCLES:
        cyc_sum = cyc_sum + d_etas[i].evaluate([frame.xis[j], frame.xis[k]])
    alphas = []
    for i, j, k in CYCLES:
        horiz = restrict_h(d_etas[k].interior(frame.xis[j]), frame)
        total = horiz
        for s in range(3):
            val = d_etas[s].evaluate([frame.xis[j], frame.xis[k]])
            if s == i:
                val = val - (s_sym / 2 + cyc_sum / 2)
            total = total + val * frame.etas[s]
        alphas.append(total)
    return alphas[0], alphas[1], alphas[2]


def ricci_forms(
    g: LieAlgebra, frame: QCFrame, alphas: tuple[Form, Form, Form]
) -> tuple[Form, Form, Form]:
    """Horizontal Ricci 2-forms: 2 rho_k = (d alpha_k + alpha_i ^ alpha_j)|_H."""
    rhos = []
    for k, (i, j) in ((0, (1, 2)), (1, (2, 0)), (2, (0, 1))):
        two_rho = g.d(alphas[k]) + alphas[i].wedge(alphas[j])
        rho = Fraction(1, 2) * restrict_h(two_rho, frame)
        for c in rho.terms.values():
            if isinstance(c, Poly) and c.degree > 1:
                raise InternalError(f"quadratic scalar term survived restriction: {c}")
        rhos.append(rho)
    return rhos[0], rhos[1], rhos[2]


def solve_qc_scalar_curvature(frame: QCFrame, rhos: tuple[Form, Form, Form]) -> Fraction:
    """Contract each rho_r against I_r and solve the affine equation for the scalar.

    The trace identity Sum_a rho_r(e_a, I_r e_a) = -4S holds in dimension 7
    because the horizontal torsion is completely trace-free; the three r give
    one linear equation each and must agree.
    """
    s_sym = variable(S_NAME)
    values = []
    for rho, m in zip(rhos, frame.complex_structures):
        contraction: Scalar = Fraction(0)
        for a in range(4):
            contraction = contraction + rho.evaluate([frame.hvec(a), hcolumn(frame, m, a)])
        a_coef, b_coef = linear_coeffs(contraction + 4 * s_sym, S_NAME)
        values.append(solve_linear(a_coef, b_coef))
    if len(set(values)) != 1:
        raise InconsistentCurvature(f"contractions disagree: {values}")
    return values[0]


def t0_tensor(
    frame: QCFrame, rhos: tuple[Form, Form, Form], s_value: Fraction
) -> Matrix4:
    """Reconstruct the horizontal torsion 2-tensor from the Ricci 2-forms.

    T0(X, Y) = Sum_r rho_r(X, -I_r Y) - 3 S g(X, Y); the result has to come
    out symmetric and trace-free, which is audited here.
    """
    rhos_n = [substitute_form(r, s_value) for r in rhos]
    t0: Matrix4 = [[Fraction(0)] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            acc: Scalar = Fraction(0)
            for rho, m in zip(rhos_n, frame.complex_structures):
                acc = acc + rho.evaluate([frame.hvec(a), -hcolumn(frame, m, b)])
            if a == b:
                acc = acc - 3 * s_value
            t0[a][b] = acc
    if any(t0[a][b] != t0[b][a] for a in range(4) for b in range(4)):
        raise InconsistentTorsion("reconstructed tensor is not symmetric")
    if sum(t0[a][a] for a in range(4)) != 0:
        raise InconsistentTorsion("reconstructed tensor has nonzero trace")
    return t0


def torsion_endomorphisms(frame: QCFrame, t0: Matrix4) -> tuple[Matrix4, Matrix4, Matrix4]:
    """g(T_r Z, Y) = (T0(-I_r Z, Y) - T0(Z, I_r Y)) / 4, as matrices on H."""
    endos = []
    for m in frame.complex_structures:
        # p[x][y] = T0(e_x, I_r e_y); T0 is symmetric, so T0(I_r e_b, e_a) = p[a][b]
        p = matmul(t0, m)
        endos.append([[-(p[a][b] + p[b][a]) / 4 for b in range(4)] for a in range(4)])
    return endos[0], endos[1], endos[2]


@dataclass(frozen=True)
class Torsion:
    """Full torsion tensor, stored on index pairs a < b of the frame's basis."""

    dim: int
    slots: dict[tuple[int, int], Vec]

    def value(self, a: int, b: int) -> Vec:
        if a == b:
            return Vec.zero(self.dim)
        if a < b:
            return self.slots[(a, b)]
        return -self.slots[(b, a)]


def assemble_torsion(
    g: LieAlgebra,
    frame: QCFrame,
    endos: tuple[Matrix4, Matrix4, Matrix4],
    s_value: Fraction,
) -> Torsion:
    """Fill every slot: horizontal pairs from the bracket, mixed pairs from the
    endomorphisms, vertical pairs from the scalar and the bracket."""
    slots: dict[tuple[int, int], Vec] = {}
    hset, vset = set(frame.horizontal), set(frame.vertical)

    def vertical_part(v: Vec) -> Vec:
        out = Vec.zero(g.dim)
        for i in frame.vertical:
            out = out + v.comp(i) * Vec.basis(g.dim, i)
        return out

    def horizontal_part(v: Vec) -> Vec:
        out = Vec.zero(g.dim)
        for i in frame.horizontal:
            out = out + v.comp(i) * Vec.basis(g.dim, i)
        return out

    for a in range(1, g.dim + 1):
        for b in range(a + 1, g.dim + 1):
            if a in hset and b in hset:
                slots[(a, b)] = -vertical_part(g.bracket(a, b))
            elif a in vset and b in vset:
                i, j = frame.vertical.index(a), frame.vertical.index(b)
                k = 3 - i - j
                sign = 1 if (i, j) in ((0, 1), (1, 2), (2, 0)) else -1
                slots[(a, b)] = (-sign * s_value) * frame.xis[k] - horizontal_part(
                    g.bracket_vec(frame.xis[i], frame.xis[j])
                )
            else:
                h, v = (a, b) if a in hset else (b, a)
                r = frame.vertical.index(v)
                t_of_h = hcolumn(frame, endos[r], frame.horizontal.index(h))
                slots[(a, b)] = t_of_h if a in vset else -t_of_h
    return Torsion(g.dim, slots)


@dataclass(frozen=True)
class Connection:
    """Christoffel table: gamma[(a, b)] = covariant derivative of e_b along e_a."""

    dim: int
    gamma: dict[tuple[int, int], Vec]

    def nabla(self, a: int, b: int) -> Vec:
        return self.gamma[(a, b)]

    def nabla_vec(self, u: Vec, w: Vec) -> Vec:
        """Derivative of the constant-coefficient field w along u."""
        out = Vec.zero(self.dim)
        for a in range(1, self.dim + 1):
            ca = u.comp(a)
            if is_zero(ca):
                continue
            for b in range(1, self.dim + 1):
                cb = w.comp(b)
                if is_zero(cb):
                    continue
                out = out + (ca * cb) * self.gamma[(a, b)]
        return out


def levi_civita(g: LieAlgebra) -> Connection:
    """Koszul formula for a left-invariant metric (identity in this basis)."""
    br = {
        (a, b): g.bracket(a, b)
        for a in range(1, g.dim + 1)
        for b in range(1, g.dim + 1)
    }
    gamma = {}
    for a in range(1, g.dim + 1):
        for b in range(1, g.dim + 1):
            comps = []
            for c in range(1, g.dim + 1):
                val = br[(a, b)].comp(c) - br[(b, c)].comp(a) + br[(c, a)].comp(b)
                comps.append(val / 2)
            gamma[(a, b)] = Vec(tuple(comps))
    return Connection(g.dim, gamma)


def biquard_connection(g: LieAlgebra, lc: Connection, torsion: Torsion) -> Connection:
    """Add the standard torsion correction to the Levi-Civita coefficients."""
    gamma = {}
    for a in range(1, g.dim + 1):
        ea = Vec.basis(g.dim, a)
        for b in range(1, g.dim + 1):
            eb = Vec.basis(g.dim, b)
            comps = []
            for c in range(1, g.dim + 1):
                ec = Vec.basis(g.dim, c)
                corr = (
                    dot(torsion.value(a, b), ec)
                    - dot(torsion.value(b, c), ea)
                    + dot(torsion.value(c, a), eb)
                )
                comps.append(lc.nabla(a, b).comp(c) + corr / 2)
            gamma[(a, b)] = Vec(tuple(comps))
    return Connection(g.dim, gamma)


def connection_torsion(g: LieAlgebra, conn: Connection) -> Torsion:
    """Recompute T(X, Y) = nabla_X Y - nabla_Y X - [X, Y] from the coefficients."""
    slots = {}
    for a in range(1, g.dim + 1):
        for b in range(a + 1, g.dim + 1):
            slots[(a, b)] = conn.nabla(a, b) - conn.nabla(b, a) - g.bracket(a, b)
    return Torsion(g.dim, slots)


def curvature(g: LieAlgebra, conn: Connection) -> dict[tuple[int, int, int, int], Scalar]:
    """(0,4) curvature on all basis 4-tuples, first-pair antisymmetric."""
    riem: dict[tuple[int, int, int, int], Scalar] = {}
    for a in range(1, g.dim + 1):
        ea = Vec.basis(g.dim, a)
        for b in range(1, g.dim + 1):
            eb = Vec.basis(g.dim, b)
            br = g.bracket(a, b)
            for c in range(1, g.dim + 1):
                ec = Vec.basis(g.dim, c)
                vec = (
                    conn.nabla_vec(ea, conn.nabla(b, c))
                    - conn.nabla_vec(eb, conn.nabla(a, c))
                    - conn.nabla_vec(br, ec)
                )
                for dd in range(1, g.dim + 1):
                    riem[(a, b, c, dd)] = vec.comp(dd)
    return riem


@dataclass(frozen=True)
class Pipeline:
    """Everything the connection pipeline produces for one algebra + frame."""

    g: LieAlgebra
    frame: QCFrame
    alphas: tuple[Form, Form, Form]
    rhos: tuple[Form, Form, Form]
    s_value: Fraction
    t0: Matrix4
    endos: tuple[Matrix4, Matrix4, Matrix4]
    torsion: Torsion
    lc: Connection
    conn: Connection
    riem: dict[tuple[int, int, int, int], Scalar]


def normalize_scale(g: LieAlgebra, frame: QCFrame) -> tuple[LieAlgebra, QCFrame]:
    """Rescale the vertical covectors so the compatibility scale becomes 2.

    The connection formulas assume the convention in which the differentials
    of the vertical covectors restrict to twice the fundamental 2-forms, so
    a document declared with another scale is rebased first.  The horizontal
    covectors are untouched, hence every horizontal output (scalar curvature,
    torsion tensor, curvature samples) is unchanged by the rebase.
    """
    if frame.scale == 2:
        return g, frame
    from .family import rescale_covectors

    factor = Fraction(2) / frame.scale
    rescaled = rescale_covectors(g, {v: factor for v in frame.vertical})
    return rescaled, QCFrame(
        frame.dim,
        frame.horizontal,
        frame.vertical,
        frame.etas,
        frame.xis,
        frame.omegas,
        Fraction(2),
    )


def run_pipeline(g: LieAlgebra, frame: QCFrame) -> Pipeline:
    require_rational(g)
    if not check_compatibility(g, frame):
        raise NotQuaternionic(
            f"{g.name}: d eta_r restricted to H is not {frame.scale} * omega_r"
        )
    g, frame = normalize_scale(g, frame)
    alphas = sp1_connection_forms(g, frame)
    rhos = ricci_forms(g, frame, alphas)
    s_value = solve_qc_scalar_curvature(frame, rhos)
    t0 = t0_tensor(frame, rhos, s_value)
    endos = torsion_endomorphisms(frame, t0)
    torsion = assemble_torsion(g, frame, endos, s_value)
    lc = levi_civita(g)
    conn = biquard_connection(g, lc, torsion)
    riem = curvature(g, conn)
    return Pipeline(g, frame, alphas, rhos, s_value, t0, endos, torsion, lc, conn, riem)


def audit(p: Pipeline) -> list[dict]:
    """Named self-consistency checks; all must pass for a trustworthy report."""
    g, frame = p.g, p.frame
    checks: list[dict] = []

    ok = all(
        is_zero(p.conn.nabla(a, b).comp(c) + p.conn.nabla(a, c).comp(b))
        for a in range(1, g.dim + 1)
        for b in range(1, g.dim + 1)
        for c in range(1, g.dim + 1)
    )
    checks.append({"name": "metric_compatibility", "passed": ok})

    hset, vset = set(frame.horizontal), set(frame.vertical)
    ok = True
    for a in range(1, g.dim + 1):
        for b in range(1, g.dim + 1):
            vec = p.conn.nabla(a, b)
            wrong = vset if b in hset else hset
            if any(not is_zero(vec.comp(i)) for i in wrong):
                ok = False
    checks.append({"name": "preserves_splitting", "passed": ok})

    i_mats = frame.complex_structures
    alphas_n = [substitute_form(al, p.s_value) for al in p.alphas]
    ok = True
    for (i, j, k) in CYCLES:
        for a in range(1, g.dim + 1):
            ea = Vec.basis(g.dim, a)
            aj = alphas_n[j].evaluate([ea])
            ak = alphas_n[k].evaluate([ea])
            for bpos in range(4):
                lhs = p.conn.nabla_vec(ea, hcolumn(frame, i_mats[i], bpos)) - from_hcomps(
                    frame, apply_endo(i_mats[i], hcomps(frame, p.conn.nabla(a, frame.horizontal[bpos])))
                )
                rhs = -aj * hcolumn(frame, i_mats[k], bpos) + ak * hcolumn(frame, i_mats[j], bpos)
                if lhs != rhs:
                    ok = False
    checks.append({"name": "rotates_complex_structures", "passed": ok})

    ok = True
    for endo in p.endos:
        if any(endo[a][b] != endo[b][a] for a in range(4) for b in range(4)):
            ok = False
        if sum(endo[a][a] for a in range(4)) != 0:
            ok = False
        for m in i_mats:
            tr = sum(
                (sum((endo[a][c] * m[c][a] for c in range(4)), Fraction(0)) for a in range(4)),
                Fraction(0),
            )
            if tr != 0:
                ok = False
    checks.append({"name": "torsion_endo_properties", "passed": ok})

    rhos_n = [substitute_form(r, p.s_value) for r in p.rhos]
    ok = True
    for rho, m in zip(rhos_n, i_mats):
        for xpos in range(4):
            for ypos in range(4):
                x_idx, y_idx = frame.horizontal[xpos], frame.horizontal[ypos]
                total: Scalar = Fraction(0)
                for a in range(4):
                    for bpos in range(4):
                        if is_zero(m[bpos][a]):
                            continue
                        total = total + m[bpos][a] * p.riem[
                            (x_idx, y_idx, frame.horizontal[a], frame.horizontal[bpos])
                        ]
                if total != 4 * rho.evaluate([Vec.basis(g.dim, x_idx), Vec.basis(g.dim, y_idx)]):
                    ok = False
        if not ok:
            break
    checks.append({"name": "ricci_from_curvature", "passed": ok})

    total = Fraction(0)
    for a_idx in frame.horizontal:
        for b_idx in frame.horizontal:
            total += p.riem[(b_idx, a_idx, a_idx, b_idx)]
    checks.append({"name": "scalar_from_curvature", "passed": total == 24 * p.s_value})

    t12 = p.torsion.value(frame.vertical[0], frame.vertical[1])
    checks.append(
        {"name": "scalar_from_torsion", "passed": -dot(t12, frame.xis[2]) == p.s_value}
    )

    recomputed = connection_torsion(g, p.conn)
    ok = all(
        recomputed.value(a, b) == p.torsion.value(a, b)
        for a in range(1, g.dim + 1)
        for b in range(a + 1, g.dim + 1)
    )
    checks.append({"name": "torsion_roundtrip", "passed": ok})

    return checks
