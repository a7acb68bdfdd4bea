"""The canonical connection pipeline on a qc Lie algebra.

Order of play: sp(1)-connection 1-forms and horizontal Ricci 2-forms at
S = 0, the scalar curvature S from each Ricci form at its known slope, the
horizontal torsion tensor and the three torsion endomorphisms, the full torsion
as one integer table, the Christoffel coefficients of the canonical connection
(one Koszul sum over the structure table plus the torsion), curvature, and a
self-consistency audit.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InconsistentCurvature, InconsistentTorsion
from .exterior import LieAlgebra, Vec
from .linalg import common_denominator, matmul, scaled
from .qc import CYCLES, Matrix4, QCFrame, adapt
from .scalars import Value


def sp1_connection_forms(g: LieAlgebra, frame: QCFrame) -> IntTensor:
    """The three connection 1-forms at S = 0 as one IntTensor over 2E, read as
    alpha_i(e_a) = alphas[i, a]; at the scalar S, alpha_i is this minus S/2 eta_i.

    Takes an adapted pair, as `qc.adapt` returns it (scale 2, a quaternionic
    triple, the duality conditions hold); it checks none of that itself.  With
    d eta_k(e_a, e_b) = -C[a][b][v_k] / E off the structure table (E, C):
    alpha_i(X) = d eta_k(xi_j, X) on H, alpha_i(xi_s) = d eta_s(xi_j, xi_k) less,
    on the diagonal s = i, half the cyclic sum of the d eta_r(xi_j, xi_k).
    """
    e, c = g.structure_table
    v = [x - 1 for x in frame.vertical]
    cyc_sum = sum(c[v[j]][v[k]][v[i]] for i, j, k in CYCLES)
    rows = []
    for i, j, k in CYCLES:
        rows.append([-2 * (c[v[j]][v[k]][x] if x in v else c[v[j]][x][v[k]]) for x in range(g.dim)])
        rows[i][v[i]] += cyc_sum
    return IntTensor(g.dim, 2 * e, rows)


def ricci_forms(g: LieAlgebra, frame: QCFrame, alphas: IntTensor) -> tuple[Matrix4, Matrix4, Matrix4]:
    """Horizontal Ricci 2-forms 2 rho_k = (d alpha_k + alpha_i ^ alpha_j)|_H at
    S = 0 as 4x4 matrices rho_k(e_a, e_b); at the scalar S, rho_k + S/2 I_k.

    (d alpha)(e_a, e_b) = -alpha([e_a, e_b]) contracts alpha with the table
    (E, C), and the wedge is an antisymmetrized outer product.  The S-part
    -S/2 eta_k of alpha_k drops out of every wedge on H, and its d adds
    -S/2 d eta_k|_H = -S omega_k to 2 rho_k at scale 2.  All over E f^2, f = alphas.den.
    """
    e, c = g.structure_table
    h = [x - 1 for x in frame.horizontal]
    f, t = alphas.den, alphas.table

    def two_rho(k: int, i: int, j: int, a: int, b: int) -> int:  # E f^2 times 2 rho_k(e_a, e_b)
        return e * (t[i][a] * t[j][b] - t[i][b] * t[j][a]) - f * sum(map(mul, t[k], c[a][b]))

    return tuple([[Fraction(two_rho(k, i, j, a, b), 2 * e * f * f) for b in h] for a in h] for k, i, j in CYCLES)


def solve_qc_scalar_curvature(frame: QCFrame, rhos: tuple[Matrix4, Matrix4, Matrix4]) -> Fraction:
    """Contract each rho_r at S = 0 against I_r and solve for the scalar.

    The trace identity Sum_a rho_r(e_a, I_r e_a) = Sum_ab R_r[a][b] I_r[b][a]
    = -4S holds in dimension 7 because the horizontal torsion is completely
    trace-free.  The S-part S/2 I_r contracts to -2S, so the contraction c_r
    at S = 0 gives c_r - 2S = -4S, S = -c_r / 2; the three r must agree.
    """
    if frame.scale != 2:
        raise InconsistentCurvature(f"scale {frame.scale} is not 2: rebase the frame with adapt")
    values = [
        -sum(rho[a][b] * m[b][a] for a in range(4) for b in range(4)) / 2
        for rho, m in zip(rhos, frame.complex_structures)
    ]
    if len(set(values)) != 1:
        raise InconsistentCurvature(f"contractions disagree: {values}")
    return values[0]


def _cleared(mats) -> tuple[int, list]:
    """(D, [D * m for m in mats]) in plain ints, D the least common denominator of every entry."""
    den = common_denominator(x for m in mats for row in m for x in row)
    return den, [scaled(m, den) for m in mats]


def t0_tensor(frame: QCFrame, rhos: tuple[Matrix4, Matrix4, Matrix4], s_value: Fraction) -> Matrix4:
    """Reconstruct the horizontal torsion 2-tensor from the Ricci 2-forms at S.

    T0(X, Y) = Sum_r rho_r(X, -I_r Y) - 3 S g(X, Y), that is
    T0 = -Sum_r R_r I_r - 3 S g with R_r the matrix of rho_r; the result has
    to come out symmetric and trace-free, which is audited here.  The products
    run in ints, on the R_r and I_r cleared to denominators P and Q, over
    D = lcm(PQ, the denominator of S).
    """
    p, rs = _cleared(rhos)
    q, ms = _cleared(frame.complex_structures)
    den = lcm(p * q, s_value.denominator)
    up, s3 = den // (p * q), 3 * s_value.numerator * (den // s_value.denominator)
    prods = [matmul(r, m) for r, m in zip(rs, ms)]
    t0 = [[-up * sum(x[a][b] for x in prods) - (s3 if a == b else 0) for b in range(4)] for a in range(4)]
    if any(t0[a][b] != t0[b][a] for a in range(4) for b in range(4)):
        raise InconsistentTorsion("reconstructed tensor is not symmetric")
    if sum(t0[a][a] for a in range(4)) != 0:
        raise InconsistentTorsion("reconstructed tensor has nonzero trace")
    return [[Fraction(x, den) for x in row] for row in t0]


def torsion_endomorphisms(frame: QCFrame, t0: Matrix4) -> tuple[Matrix4, Matrix4, Matrix4]:
    """g(T_r Z, Y) = (T0(-I_r Z, Y) - T0(Z, I_r Y)) / 4, as matrices on H; the
    products run in ints on T0 and the I_r cleared to denominators P and Q."""
    p, (t,) = _cleared([t0])
    q, ms = _cleared(frame.complex_structures)
    endos = []
    for m in ms:
        # x[a][b] = PQ T0(e_a, I_r e_b); T0 is symmetric, so PQ T0(I_r e_b, e_a) = x[a][b]
        x = matmul(t, m)
        endos.append([[Fraction(-(x[a][b] + x[b][a]), 4 * p * q) for b in range(4)] for a in range(4)])
    return endos[0], endos[1], endos[2]


def _flat(table: list) -> list[int]:
    while table and isinstance(table[0], list):
        table = [x for row in table for x in row]
    return table


class IntTensor(Value):
    """A dense integer table over one denominator: the entry at the 1-based
    index (a, b, ...) is table[a - 1][b - 1]... / den.  Equal by value, so the
    same tensor over another denominator compares equal."""

    dim: int
    den: int
    table: list

    def __getitem__(self, key: tuple[int, ...]) -> Fraction:
        x = self.table
        for i in key:
            x = x[i - 1]
        return Fraction(x, self.den)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        u, w = _flat(self.table), _flat(other.table)
        return self.dim == other.dim and len(u) == len(w) and all(x * other.den == y * self.den for x, y in zip(u, w))


class Torsion(IntTensor):
    """Full torsion tensor, antisymmetric in its first pair:
    T(e_a, e_b)_c = table[a - 1][b - 1][c - 1] / den."""

    def value(self, a: int, b: int) -> Vec:
        return Vec(tuple(Fraction(x, self.den) for x in self.table[a - 1][b - 1]))


def assemble_torsion(
    g: LieAlgebra,
    frame: QCFrame,
    endos: tuple[Matrix4, Matrix4, Matrix4],
    s_value: Fraction,
) -> Torsion:
    """Fill the table over D = lcm(E, the denominators of the endomorphisms and S):
    T(X, Y) = -[X, Y]_V on horizontal pairs, T(xi_r, X) = T_r X = -T(X, xi_r),
    and T(xi_i, xi_j) = -S xi_k - [xi_i, xi_j]_H for (i, j, k) cyclic."""
    n = g.dim
    e, c = g.structure_table
    den = lcm(e, s_value.denominator, common_denominator(x for m in endos for row in m for x in row))
    ends, up = [scaled(m, den) for m in endos], den // e
    s_num = s_value.numerator * (den // s_value.denominator)
    hor, ver = [x - 1 for x in frame.horizontal], [x - 1 for x in frame.vertical]
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for side, other in ((hor, ver), (ver, hor)):  # minus the bracket's part off the pair's side
        for a, b in itertools.product(side, repeat=2):
            for x in other:
                table[a][b][x] = -up * c[a][b][x]
    for i, j, k in CYCLES:
        table[ver[i]][ver[j]][ver[k]], table[ver[j]][ver[i]][ver[k]] = -s_num, s_num
    for r, xi in enumerate(ver):
        for col, y in enumerate(hor):
            for row, x in enumerate(hor):
                table[xi][y][x], table[y][xi][x] = ends[r][row][col], -ends[r][row][col]
    return Torsion(n, den, table)


class Connection(IntTensor):
    """Christoffel table: Gamma_abc = table[a - 1][b - 1][c - 1] / den is the
    e_c component of the covariant derivative of e_b along e_a."""

    def nabla(self, a: int, b: int) -> Vec:
        return Vec(tuple(Fraction(x, self.den) for x in self.table[a - 1][b - 1]))

    @property
    def gamma(self) -> dict[tuple[int, int], Vec]:
        """Every nabla(a, b) as a Vec of Fractions, keyed (a, b)."""
        return {(a, b): self.nabla(a, b) for a, b in itertools.product(range(1, self.dim + 1), repeat=2)}


class Curvature(IntTensor):
    """(0,4) curvature tensor, antisymmetric in (a, b):
    R(a, b, c, d) = table[a - 1][b - 1][c - 1][d - 1] / den, on all basis
    4-tuples for R and on horizontal positions for W^qc."""

    def values(self) -> list[Fraction]:
        """Every entry as a Fraction, in index order."""
        return [Fraction(x, self.den) for x in _flat(self.table)]


def _over_one_den(d: int, t: list, e: int, c: list) -> tuple[int, list, list]:
    """Two dense 3-index tables t / d and c / e over D = lcm(d, e): (D, D t / d, D c / e)."""
    den = lcm(d, e)
    u, w = den // d, den // e
    return den, [[[u * x for x in v] for v in row] for row in t], [[[w * x for x in v] for v in row] for row in c]


def _koszul(k: list) -> list:
    """k_abc - k_bca + k_cab for every a, b, c of a dense table."""
    r = range(len(k))
    return [[[k[a][b][c] - k[b][c][a] + k[c][a][b] for c in r] for b in r] for a in r]


def levi_civita(g: LieAlgebra) -> Connection:
    """Koszul formula for a left-invariant metric (identity in this basis):
    Gamma_abc = (C_abc - C_bca + C_cab) / 2 with C_abc = [e_a, e_b]_c."""
    den, c = g.structure_table
    return Connection(g.dim, 2 * den, _koszul(c))


def biquard_connection(g: LieAlgebra, torsion: Torsion) -> Connection:
    """The metric connection with torsion T: the Koszul sum
    Gamma_abc = (K_abc - K_bca + K_cab) / 2 with K = C + T, K_abc = [e_a, e_b]_c
    + T(e_a, e_b)_c, both cleared to lcm(E, den).  T = 0 is `levi_civita`."""
    den, t, c = _over_one_den(torsion.den, torsion.table, *g.structure_table)
    k = [[[x + y for x, y in zip(cv, tv)] for cv, tv in zip(*rows)] for rows in zip(c, t)]
    return Connection(g.dim, 2 * den, _koszul(k))


def curvature(g: LieAlgebra, conn: Connection) -> Curvature:
    """(0,4) curvature on all basis 4-tuples, first-pair antisymmetric.

    R(a,b,c,d) = Sum_m (Gamma_bcm Gamma_amd - Gamma_acm Gamma_bmd - C_abm Gamma_mcd):
    with A_x the matrix A_x[c][d] = Gamma_xcd, the block of (a, b) is
    A_b A_a - A_a A_b - Sum_m C_abm A_m.  Gamma and C are cleared to one
    denominator E, so each block is an integer matrix over E^2; the blocks
    with a < b are computed and the others follow by antisymmetry.
    """
    n = g.dim
    e, gam, br = _over_one_den(conn.den, conn.table, *g.structure_table)
    table = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            r = [
                [x - y for x, y in zip(u, v)]
                for u, v in zip(matmul(gam[b], gam[a]), matmul(gam[a], gam[b]))
            ]
            for m, k in enumerate(br[a][b]):
                if k:
                    r = [[x - k * y for x, y in zip(u, v)] for u, v in zip(r, gam[m])]
            table[a][b] = r
            table[b][a] = [[-x for x in row] for row in r]
    return Curvature(n, e * e, table)


class Pipeline(Value):
    """Everything the connection pipeline produces for one algebra + frame."""

    g: LieAlgebra
    frame: QCFrame
    alphas: IntTensor  # at the solved scalar, like rhos: alpha_i(e_a) = alphas[i, a]
    rhos: tuple[Matrix4, Matrix4, Matrix4]
    s_value: Fraction
    t0: Matrix4
    endos: tuple[Matrix4, Matrix4, Matrix4]
    torsion: Torsion
    conn: Connection
    riem: Curvature


def run_pipeline(g: LieAlgebra, frame: QCFrame) -> Pipeline:
    """Every stage on the pair `qc.adapt` returns; raises what the gate raises."""
    g, frame = adapt(g, frame)
    alphas = sp1_connection_forms(g, frame)
    rhos = ricci_forms(g, frame, alphas)
    s_value = solve_qc_scalar_curvature(frame, rhos)
    half = s_value / 2
    den = lcm(alphas.den, half.denominator)
    up, shift = den // alphas.den, half.numerator * (den // half.denominator)
    rows = [[up * x - shift * (a == v) for a, x in enumerate(row, 1)] for row, v in zip(alphas.table, frame.vertical)]
    alphas = IntTensor(g.dim, den, rows)
    rhos = tuple(
        [[x + half * y for x, y in zip(u, w)] for u, w in zip(rho, m)] for rho, m in zip(rhos, frame.complex_structures)
    )
    t0 = t0_tensor(frame, rhos, s_value)
    endos = torsion_endomorphisms(frame, t0)
    torsion = assemble_torsion(g, frame, endos, s_value)
    conn = biquard_connection(g, torsion)
    riem = curvature(g, conn)
    return Pipeline(g, frame, alphas, rhos, s_value, t0, endos, torsion, conn, riem)


def audit(p: Pipeline) -> list[dict]:
    """Named self-consistency checks; all must pass for a trustworthy report.

    The connection and curvature checks compare plain ints: Gamma and the
    structure constants are cleared to one denominator E, the torsion table
    keeps its own, and each side of an equation is scaled by the same
    positive integer.
    """
    g, frame = p.g, p.frame
    n = g.dim
    checks: list[dict] = []
    e, gam, br = _over_one_den(p.conn.den, p.conn.table, *g.structure_table)
    t, tden = p.torsion.table, p.torsion.den
    hor, ver = [i - 1 for i in frame.horizontal], [i - 1 for i in frame.vertical]
    span = range(n)

    ok = all(gam[a][b][x] + gam[a][x][b] == 0 for a in span for b in span for x in span)
    checks.append({"name": "metric_compatibility", "passed": ok})

    ok = not any(gam[a][b][i] for a in span for b in span for i in (ver if b in hor else hor))
    checks.append({"name": "preserves_splitting", "passed": ok})

    # nabla_a (I_i e_b) - I_i (nabla_a e_b)|_H == -alpha_j(e_a) I_k e_b + alpha_k(e_a) I_j e_b,
    # as full vectors, both sides times E q f (I_r = J_r / q, alpha_r(e_a) = al[r][a] / f)
    i_mats = frame.complex_structures
    q = common_denominator(x for m in i_mats for row in m for x in row)
    js = [scaled(m, q) for m in i_mats]
    f, al = p.alphas.den, p.alphas.table
    ok = True
    for i, j, k in CYCLES:
        ji_t = [list(col) for col in zip(*js[i])]
        for a in span:
            # row b: E q nabla_a (I_i e_b) and E q I_i (nabla_a e_b)|_H
            rows = [gam[a][x] for x in hor]
            moved = matmul(ji_t, rows)
            turned = matmul([[row[y] for y in hor] for row in rows], ji_t)
            for b in range(4):
                lhs = [f * x for x in moved[b]]
                rhs = [0] * n
                for x in range(4):
                    lhs[hor[x]] -= f * turned[b][x]
                    rhs[hor[x]] = e * (al[k][a] * js[j][x][b] - al[j][a] * js[k][x][b])
                ok = ok and lhs == rhs
    checks.append({"name": "rotates_complex_structures", "passed": ok})

    span4 = range(4)
    ok = all(
        all(endo[a][b] == endo[b][a] for a in span4 for b in span4)
        and sum(endo[a][a] for a in span4) == 0
        and all(sum(endo[a][c] * m[c][a] for a in span4 for c in span4) == 0 for m in i_mats)
        for endo in p.endos
    )
    checks.append({"name": "torsion_endo_properties", "passed": ok})

    # Sum_ab I_r[b][a] R(x, y, e_a, e_b) == 4 rho_r(x, y), both sides times q
    rt, rden = p.riem.table, p.riem.den
    ok = all(
        Fraction(sum(m[b][a] * rt[hor[x]][hor[y]][hor[a]][hor[b]] for a in span4 for b in span4), q * rden)
        == 4 * rm[x][y]
        for rm, m in zip(p.rhos, js)
        for x in span4
        for y in span4
    )
    checks.append({"name": "ricci_from_curvature", "passed": ok})

    total = Fraction(sum(rt[b][a][a][b] for a in hor for b in hor), rden)
    checks.append({"name": "scalar_from_curvature", "passed": total == 24 * p.s_value})

    # -T(xi_1, xi_2)_3 == S, cross-multiplied
    ok = -t[ver[0]][ver[1]][ver[2]] * p.s_value.denominator == p.s_value.numerator * tden
    checks.append({"name": "scalar_from_torsion", "passed": ok})

    # T(e_a, e_b) == nabla_a e_b - nabla_b e_a - [e_a, e_b], the left side over E, T over tden
    ok = all(
        (gam[a][b][x] - gam[b][a][x] - br[a][b][x]) * tden == t[a][b][x] * e
        for a in span
        for b in range(a + 1, n)
        for x in span
    )
    checks.append({"name": "torsion_roundtrip", "passed": ok})

    return checks
