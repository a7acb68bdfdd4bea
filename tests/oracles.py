"""Reference implementations that only the tests use.

The package runs one integer path: structure tables, matrices on horizontal
positions and ranks of weight-zero blocks.  This module holds the routes it
is checked against, none of which the package calls:

- the builders of test inputs: the standard qc frame and its omegas, and
  the identity matrix;
- the Form/Vec calculus: alternating evaluation by determinant expansion,
  interior products, the identity metric, coordinate rows, brackets read off
  the differentials, d(d e^k) through `LieAlgebra.d`, the whole E * d_j, the
  horizontal helpers of a qc frame, the covariant derivative of a constant
  field, the torsion recomputed from Christoffel coefficients, and a
  `Connection` built from a dict of `Vec`s of Fractions;
- the qc compatibility and duality verdicts through `Form.pair` on the
  differentials d eta_r, and the horizontal 1-forms of the adapted coframe
  shape;
- solving a*S + b = 0 for a symbol S (with its two errors), and the
  connection and Ricci forms over `Poly` in S through `LieAlgebra.d` and
  `Form.wedge`;
- the Betti numbers of the whole Chevalley-Eilenberg complex;
- the flag search that backtracks over every 1-dimensional ideal of every
  quotient, and the flag it gives;
- the flag check that ranks each covector's d against its level's wedges
  on its own;
- d Omega as Omega times the whole E * d_4 of each coefficient table;
- the closed form of T0 on g1 and g2, and the wedge powers of a flag's
  covectors that its degeneracy consequences are read from.
"""

import itertools
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from operator import mul

from qcalc import linalg
from qcalc.biquard import Connection, IntTensor
from qcalc.catalog import source
from qcalc.errors import IndeterminateMismatch, InvalidFlag, ParametricNotSupported, QcalcError
from qcalc.exterior import Flag, Form, Index, LieAlgebra, Vec, _weight_zero_block, monomials, require_rational
from qcalc.parser import AlgebraDocument, parse
from qcalc.qc import CYCLES, Matrix4, QCFrame, adapt, derive_complex_structures, fundamental_form, verdicts
from qcalc.scalars import ZERO, Poly, Scalar, is_zero, poly, rational_roots, variable


def document(name: str) -> AlgebraDocument:
    return parse(source(name))


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
    if omegas is None:
        omegas = standard_omegas(dim, horizontal)
    return QCFrame(dim, tuple(horizontal), tuple(vertical), omegas, Fraction(scale))


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# the Form/Vec calculus


def covector(dim: int, i: int) -> Form:
    return Form.make(dim, 1, {(i,): Fraction(1)})


def evaluate(f: Form, vectors: list[Vec]) -> Scalar:
    """Alternating multilinear evaluation (determinant expansion)."""
    if len(vectors) != f.degree:
        raise ValueError(f"need {f.degree} vectors, got {len(vectors)}")
    total: Scalar = Fraction(0)
    for key, c in f.terms.items():
        rows = [[v.comp(i) for v in vectors] for i in key]
        total = total + c * _det(rows)
    return total


def _det(rows: list[list[Scalar]]) -> Scalar:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total: Scalar = Fraction(0)
    for j, top in enumerate(rows[0]):
        if is_zero(top):
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = top * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def interior(f: Form, v: Vec) -> Form:
    """v ⌟ f, contraction in the first slot."""
    if f.degree == 0:
        raise ValueError("interior product with a 0-form")
    out: dict[Index, Scalar] = {}
    for key, c in f.terms.items():
        for pos, i in enumerate(key):
            comp = v.comp(i)
            if is_zero(comp):
                continue
            rest = key[:pos] + key[pos + 1 :]
            sign = -1 if pos % 2 else 1
            out[rest] = out.get(rest, Fraction(0)) + sign * comp * c
    return Form.make(f.dim, f.degree - 1, out)


def dot(u: Vec, v: Vec) -> Scalar:
    """The identity metric on the declared basis."""
    total: Scalar = Fraction(0)
    for a, b in zip(u.comps, v.comps):
        total = total + a * b
    return total


def form_coords(f: Form, basis: list[Index]) -> list[Fraction]:
    """Coefficient row of a parameter-free form over a monomial basis."""
    row = []
    for key in basis:
        c = f.coeff(key)
        if isinstance(c, Poly):
            raise ParametricNotSupported("form has parametric coefficients")
        row.append(c)
    return row


def bracket(g: LieAlgebra, i: int, j: int) -> Vec:
    """[e_i, e_j]; k-component is -(d e^k)(e_i, e_j)."""
    return Vec(tuple(-f.pair(i, j) for f in g.differentials))


def jacobi_check(g: LieAlgebra) -> list[Form]:
    """d(d e^k) for every k with nonzero result; the reference for `jacobi_sum`."""
    return [dd for k in range(1, g.dim + 1) if not (dd := g.d(g.differential(k))).is_zero]


def differential_matrix(g: LieAlgebra, j: int) -> list[list[int]]:
    """E * d_j in plain ints: one row per j-monomial, one column per (j+1)-monomial."""
    return _weight_zero_block(g.structure_table[1], (0,) * g.dim, j)


def horizontal_matrix(f: Form, frame: QCFrame) -> Matrix4:
    """M[a][b] = f(e_a, e_b) for a 2-form f, on horizontal positions."""
    h = frame.horizontal
    return [[f.pair(x, y) for y in h] for x in h]


def hvec(frame: QCFrame, pos: int) -> Vec:
    """Horizontal basis vector by position 0..3."""
    return Vec.basis(frame.dim, frame.horizontal[pos])


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


def nabla_vec(conn: Connection, u: Vec, w: Vec) -> Vec:
    """Derivative of the constant-coefficient field w along u."""
    out = Vec.zero(conn.dim)
    for a in range(1, conn.dim + 1):
        ca = u.comp(a)
        if is_zero(ca):
            continue
        for b in range(1, conn.dim + 1):
            cb = w.comp(b)
            if is_zero(cb):
                continue
            out = out + (ca * cb) * conn.gamma[(a, b)]
    return out


def restrict_h(f: Form, frame: QCFrame) -> Form:
    """Drop every term that touches a vertical index."""
    vert = set(frame.vertical)
    return Form.make(
        f.dim, f.degree, {k: c for k, c in f.terms.items() if not vert & set(k)}
    )


def compatible(g: LieAlgebra, frame: QCFrame) -> bool:
    """d eta_r restricted to H equals scale * omega_r as whole forms, scale nonzero."""
    return frame.scale != 0 and all(
        restrict_h(g.differential(v), frame) == frame.scale * om
        for v, om in zip(frame.vertical, frame.omegas)
    )


def bi1_violations(g: LieAlgebra, frame: QCFrame) -> list[str]:
    """The duality conditions on X -> d eta_k(xi_s, X), X horizontal, read
    through `Form.pair` on the differentials."""
    h, v = frame.horizontal, frame.vertical
    d_etas = [g.differential(x) for x in v]
    violations = []
    for s in range(3):
        if any(not is_zero(d_etas[s].pair(v[s], x)) for x in h):
            violations.append(f"(xi_{s + 1} . d eta_{s + 1})|_H != 0")
    for s in range(3):
        for k in range(s + 1, 3):
            if any(not is_zero(d_etas[k].pair(v[s], x) + d_etas[s].pair(v[k], x)) for x in h):
                violations.append(
                    f"(xi_{s + 1} . d eta_{k + 1})|_H != -(xi_{k + 1} . d eta_{s + 1})|_H"
                )
    return violations


def adapted_shape(g: LieAlgebra, frame: QCFrame) -> tuple[Form, Form, Form] | None:
    """Extract the horizontal 1-forms f_1, f_2, f_3 of the adapted coframe shape.

    d eta_i must decompose as scale*omega_i + f_j ^ eta_k - f_k ^ eta_j modulo
    purely vertical 2-forms, with (i, j, k) cyclic: f_j(X) = d eta_i(X, xi_k)
    and f_k(X) = -d eta_i(X, xi_j) for horizontal X, and d eta_i(X, xi_i) = 0.
    The two readings of f_k, d eta_j(X, xi_i) and -d eta_i(X, xi_j), agree
    and every d eta_i(X, xi_i) vanishes exactly when `check_bi1` holds, so
    f_j(X) = d eta_i(X, xi_k) = -C[X][v_k][v_i] / E is read once per cycle
    off the structure table (E, C).  Returns None when `adapt` rejects the
    frame.
    """
    if not verdicts(adapt, g, frame)[1]:
        return None
    e, c = g.structure_table
    v = frame.vertical
    f = {
        j: Form.make(g.dim, 1, {(x,): Fraction(-c[x - 1][v[k] - 1][v[i] - 1], e) for x in frame.horizontal})
        for i, j, k in CYCLES
    }
    return f[0], f[1], f[2]


def connection_from_gamma(gamma: dict[tuple[int, int], Vec]) -> Connection:
    """The Connection whose nabla(a, b) is gamma[(a, b)], over the least common
    denominator of all the components."""
    n = max(a for a, _ in gamma)
    den = linalg.common_denominator(x for v in gamma.values() for x in v.comps)
    return Connection(n, den, [linalg.scaled([gamma[(a, b)].comps for b in range(1, n + 1)], den) for a in range(1, n + 1)])


def connection_torsion(g: LieAlgebra, conn: Connection) -> dict[tuple[int, int], Vec]:
    """Recompute T(e_a, e_b) = nabla_a e_b - nabla_b e_a - [e_a, e_b] for a < b
    from the coefficients."""
    return {
        (a, b): conn.nabla(a, b) - conn.nabla(b, a) - bracket(g, a, b)
        for a in range(1, g.dim + 1)
        for b in range(a + 1, g.dim + 1)
    }


# ---------------------------------------------------------------------------
# the scalar curvature as a symbol


S = variable("S")


class Inconsistent(QcalcError):
    """A linear equation with no solution (a = 0, b != 0)."""


class Underdetermined(QcalcError):
    """A linear equation satisfied by everything (a = b = 0)."""


def solve_linear(a: Scalar, b: Scalar) -> Fraction:
    """Solve a*x + b = 0 for rational a, b.

    Raises Underdetermined when both vanish and Inconsistent when only a does.
    """
    if not isinstance(a, Fraction) or not isinstance(b, Fraction):
        raise TypeError("solve_linear expects rational coefficients")
    if a == 0:
        if b == 0:
            raise Underdetermined("0 = 0 determines nothing")
        raise Inconsistent(f"{b} = 0 has no solution")
    return -b / a


def linear_coeffs(x: Scalar, var: str) -> tuple[Fraction, Fraction]:
    """Write x as a*var + b, rejecting higher degrees."""
    if isinstance(x, Fraction):
        return ZERO, x
    if x.var != var:
        raise IndeterminateMismatch(f"expected indeterminate {var!r}, got {x.var!r}")
    if x.degree > 1:
        raise ValueError(f"degree {x.degree} > 1 in {x}")
    return x.coeff(1), x.coeff(0)


def symbolic(parts, frame) -> list:
    """The three connection forms at S = 0 (an IntTensor, one row per alpha_i)
    as Forms alpha_i - S/2 eta_i, or the three Ricci matrices at S = 0 as
    rho_k + S/2 I_k, over Poly in S (scale 2)."""
    half = Fraction(1, 2) * S
    if isinstance(parts, IntTensor):
        return [
            Form.make(parts.dim, 1, {(a,): parts[i, a] for a in range(1, parts.dim + 1)})
            - Form.monomial(parts.dim, half, (x,))
            for i, x in enumerate(frame.vertical, start=1)
        ]
    return [
        [[x + half * y for x, y in zip(u, w)] for u, w in zip(rho, m)]
        for rho, m in zip(parts, frame.complex_structures)
    ]


def symbolic_connection_forms(g, frame) -> list[Form]:
    """alpha_i with the scalar curvature as the symbol S: horizontal values
    d eta_k(xi_j, X); vertical values d eta_s(xi_j, xi_k), less (S + the
    cyclic sum of the d eta_r(xi_j, xi_k)) / 2 on the diagonal s = i."""
    v = frame.vertical
    d_etas = [g.differential(x) for x in v]
    cyc_sum = sum((d_etas[i].pair(v[j], v[k]) for i, j, k in CYCLES), Fraction(0))
    alphas = []
    for i, j, k in CYCLES:
        values = {(x,): d_etas[k].pair(v[j], x) for x in frame.horizontal}
        for s in range(3):
            val = d_etas[s].pair(v[j], v[k])
            values[(v[s],)] = val - (S / 2 + cyc_sum / 2) if s == i else val
        alphas.append(Form.make(g.dim, 1, values))
    return alphas


def symbolic_ricci_forms(g, frame) -> list[Form]:
    """rho_k = (d alpha_k + alpha_i ^ alpha_j)|_H / 2 over Poly in S, through
    `LieAlgebra.d` and `Form.wedge`; the frame's scale must be 2."""
    alphas = symbolic_connection_forms(g, frame)
    return [
        Fraction(1, 2) * restrict_h(g.d(alphas[k]) + alphas[i].wedge(alphas[j]), frame)
        for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]


# ---------------------------------------------------------------------------
# the whole complex


def full_complex_betti(g) -> list[int]:
    """dim H^k from the ranks of the whole complex, E * d_j on every monomial."""
    ranks = [0] + [linalg.rank(differential_matrix(g, j)) for j in range(g.dim + 1)]
    return [len(monomials(g.dim, k)) - ranks[k + 1] - ranks[k] for k in range(g.dim + 1)]


def d_fundamental_form_from_tables(g: LieAlgebra, frame: QCFrame) -> Form:
    """d Omega = Sum_d mu^d Omega (E * d_4 of C_d) / E over `coefficient_tables`:
    the coordinate row of Omega times the whole matrix of each table."""
    e, tables = g.coefficient_tables
    omega = fundamental_form(frame)
    row = [omega.coeff(key) for key in monomials(g.dim, 4)]
    images = [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*_weight_zero_block(c, (0,) * g.dim, 4))]
        for c in tables
    ]
    return Form.make(g.dim, 5, {
        key: poly(g.param, *(Fraction(image[pos], e) for image in images))
        for pos, key in enumerate(monomials(g.dim, 5))
    })


# ---------------------------------------------------------------------------
# the exhaustive flag search


def _common_eigenvectors(table) -> Iterator[list[list[Fraction]]]:
    """Candidate subspaces of simultaneous rational eigenvectors of all ad maps.

    Backtracks over the rational-eigenvalue choice per adjoint map, depth
    first in ascending eigenvalue order; each yielded subspace is nonzero and
    every vector in it is a common eigenvector.  Each map's eigenvalues are
    computed once per call, however many branches reach it.
    """
    n = len(table)
    # maps[i][r][j] = r-component of [e_i, e_j]
    maps = [[[table[i][j][r] for j in range(n)] for r in range(n)] for i in range(n)]

    @cache
    def eigenvalues(i: int) -> list[Fraction]:
        d, cp = linalg.char_poly(maps[i])
        return sorted(Fraction(y, d) for y in rational_roots(cp))

    def refine(perp: list[list[Fraction]], i: int) -> Iterator[list[list[Fraction]]]:
        # the current subspace is the annihilator of the rows in perp
        if linalg.rank(perp) == n:
            return
        if i == n:
            yield linalg.kernel(perp, n)
            return
        m = maps[i]
        if all(all(c == 0 for c in row) for row in m):
            yield from refine(perp, i + 1)
            return
        for lam in eigenvalues(i):
            # the rows of M - lam I annihilate exactly the lam-eigenspace of M
            shifted = [[m[r][c] - (lam if r == c else 0) for c in range(n)] for r in range(n)]
            yield from refine(perp + shifted, i + 1)

    yield from refine([], 0)


def _find_ideal_chain(table) -> list[list[list[Fraction]]] | None:
    """Ascending chain of ideals, one per dimension, or None."""
    n = len(table)
    if n == 0:
        return []
    for space in _common_eigenvectors(table):
        red, _ = linalg.rref(space)
        v = red[-1]  # largest leading index: canonical choices on abelian stages
        pivot = next(i for i in range(n) if v[i] != 0)
        keep = [i for i in range(n) if i != pivot]

        def project(w: list[Fraction]) -> list[Fraction]:
            scaled = [w[i] - w[pivot] * v[i] for i in range(n)]
            return [scaled[i] for i in keep]

        quotient = [
            [project(table[a][b]) for b in keep]
            for a in keep
        ]
        sub = _find_ideal_chain(quotient)
        if sub is None:
            continue

        def lift(row: list[Fraction]) -> list[Fraction]:
            out = [Fraction(0)] * n
            for pos, i in enumerate(keep):
                out[i] = row[pos]
            return out

        chain = [[v]]
        for ideal in sub:
            chain.append([lift(r) for r in ideal] + [v])
        return chain
    return None


def exhaustive_flag(g: LieAlgebra) -> Flag | None:
    """The flag of the backtracking chain, its levels built as `search_flag` builds them."""
    chain = _find_ideal_chain(g.structure_table[1])
    if chain is None:
        return None
    n = g.dim
    levels = []
    for i in range(1, n + 1):
        if i == n:
            rows = identity(n)
        else:
            rows = linalg.kernel(chain[n - i - 1], n)
        levels.append(tuple(tuple(r) for r in rows))
    return Flag(n, tuple(levels))


def verify_flag_per_covector(g: LieAlgebra, flag: Flag) -> tuple[bool, str | None]:
    """Check dV^i subset of Lambda^2 V^i for every level; first violation if any.

    One rank per covector per level, against the rank of the level's wedges.
    """
    require_rational(g)
    if flag.parametric:
        raise ParametricNotSupported("flag has parametric covectors")
    n = g.dim
    if flag.dim != n or len(flag.levels) != n:
        raise InvalidFlag(f"flag must have {n} levels over dimension {n}")
    # every shape first: the containment check of level i ranks level i + 1's rows
    for i, level in enumerate(flag.levels, 1):
        if len(level) != i or any(len(r) != n for r in level):
            raise InvalidFlag(f"level {i} must hold {i} covectors of length {n}")
    rank_here = None  # rank of level i, when level i - 1's containment check computed it
    for i in range(1, n + 1):
        rows = flag.level_rows(i)
        if (linalg.rank(rows) if rank_here is None else rank_here) != i:
            raise InvalidFlag(f"level {i} covectors are linearly dependent")
        if i < n:
            above = flag.level_rows(i + 1)
            rank_here = linalg.rank(above)
            if linalg.rank(above + rows) != rank_here:
                raise InvalidFlag(f"level {i} is not contained in level {i + 1}")

    # the rows of alpha ^ beta and of -E d alpha over the 2-monomials a < b
    _, table = g.structure_table
    pairs = list(itertools.combinations(range(n), 2))
    for i in range(1, n + 1):
        # scaling the covectors changes neither span tested below
        rows = flag.level_rows(i)
        rows = linalg.scaled(rows, linalg.common_denominator(x for r in rows for x in r))
        wedge_rows = [
            [r[a] * s[b] - r[b] * s[a] for a, b in pairs]
            for r, s in itertools.combinations(rows, 2)
        ]
        wedge_rank = linalg.rank(wedge_rows)
        for t, r in enumerate(rows):
            da = [sum(map(mul, r, table[a][b])) for a, b in pairs]
            if any(da) and linalg.rank(wedge_rows + [da]) != wedge_rank:
                return False, f"d of covector {t + 1} in level {i} leaves Lambda^2 V^{i}"
    return True, None


# ---------------------------------------------------------------------------
# closed forms


def t0_oracle(frame: QCFrame, coeff: Fraction) -> list[list[Scalar]]:
    """The closed form T0(X, Y) = coeff * (e14 - e23)(X, I3 Y) on horizontal positions."""
    pattern = Form.monomial(7, Fraction(1), (1, 4)) - Form.monomial(7, Fraction(1), (2, 3))
    _, _, i3 = derive_complex_structures(frame)
    out = []
    for a in range(4):
        row = []
        for b in range(4):
            image = apply_endo(i3, [Fraction(1) if k == b else Fraction(0) for k in range(4)])
            iy = sum((image[k] * hvec(frame, k) for k in range(4)), Vec.zero(7))
            row.append(coeff * evaluate(pattern, [hvec(frame, a), iy]))
        out.append(row)
    return out


def wedge_power(f: Form, k: int) -> Form:
    out = f
    for _ in range(k - 1):
        out = out.wedge(f)
    return out


def level_forms(flag: Flag, i: int) -> list[Form]:
    """The covectors of level i as 1-forms."""
    return [
        Form.make(flag.dim, 1, {(j,): c for j, c in enumerate(row, start=1)})
        for row in flag.levels[i - 1]
    ]
