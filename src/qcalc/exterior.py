"""Lie algebras as structure equations, exterior forms, and ascending flags.

Everything is basis-explicit: a Lie algebra of dimension n (n <= 9) is a list
of degree-2 forms d(e^1) .. d(e^n) over the coframe e^1..e^n, and the bracket
is recovered through the convention d(alpha)(X, Y) = -alpha([X, Y]).
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property, reduce
from operator import mul
from fractions import Fraction

from . import linalg
from .errors import InternalError, InvalidFlag, ParametricNotSupported
from .scalars import ZERO, Poly, Scalar, Value, integer_roots, is_zero, rational_roots, substitute

Index = tuple[int, ...]

MAX_DIM = 9


def _sort_with_sign(idx: tuple[int, ...]) -> tuple[Index, int] | None:
    """Sort an index tuple, tracking permutation parity; None if repeated."""
    if len(set(idx)) != len(idx):
        return None
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return tuple(sorted(idx)), -1 if inversions % 2 else 1


class Form(Value):
    """Sparse exterior form: strictly increasing index tuples -> coefficients."""

    dim: int
    degree: int
    terms: dict[Index, Scalar]

    def __init__(self, dim: int, degree: int, terms: dict[Index, Scalar] | None = None) -> None:
        fields = self.__dict__  # set directly: one Form per arithmetic step
        fields["dim"], fields["degree"], fields["terms"] = dim, degree, {} if terms is None else terms

    @staticmethod
    def zero(dim: int, degree: int) -> Form:
        return Form(dim, degree, {})

    @staticmethod
    def make(dim: int, degree: int, terms: dict[Index, Scalar]) -> Form:
        clean = {k: v for k, v in sorted(terms.items()) if not is_zero(v)}
        for k in clean:
            if len(k) != degree or any(not 1 <= i <= dim for i in k):
                raise ValueError(f"bad index tuple {k} for degree {degree}, dim {dim}")
            if any(a >= b for a, b in zip(k, k[1:])):
                raise ValueError(f"index tuple {k} not strictly increasing")
        return Form(dim, degree, clean)

    @staticmethod
    def monomial(dim: int, coeff: Scalar, idx: tuple[int, ...]) -> Form:
        """coeff * e^{idx}, sorting indices with sign; repeated index gives 0."""
        srt = _sort_with_sign(idx)
        if srt is None or is_zero(coeff):
            return Form.zero(dim, len(idx))
        key, sign = srt
        return Form.make(dim, len(idx), {key: sign * coeff})

    def coeff(self, idx: Index) -> Scalar:
        return self.terms.get(idx, ZERO)

    def pair(self, a: int, b: int) -> Scalar:
        """f(e_a, e_b) for a 2-form f, read off one coefficient."""
        if a < b:
            return self.terms.get((a, b), ZERO)
        return -self.terms.get((b, a), ZERO)  # a == b has no term

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def parametric(self) -> bool:
        return any(isinstance(c, Poly) for c in self.terms.values())

    def __add__(self, other: Form) -> Form:
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch {self.degree} != {other.degree}")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Form.make(self.dim, self.degree, out)

    def __sub__(self, other: Form) -> Form:
        return self + (-other)

    def __neg__(self) -> Form:
        return Form(self.dim, self.degree, {k: -v for k, v in self.terms.items()})

    def __rmul__(self, c: Scalar | int) -> Form:
        if is_zero(c) or c == 0:
            return Form.zero(self.dim, self.degree)
        return Form.make(self.dim, self.degree, {k: c * v for k, v in self.terms.items()})

    __mul__ = __rmul__

    def wedge(self, other: Form) -> Form:
        deg = self.degree + other.degree
        if deg > self.dim:
            return Form.zero(self.dim, deg)
        out: dict[Index, Scalar] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                srt = _sort_with_sign(k1 + k2)
                if srt is None:
                    continue
                key, sign = srt
                out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
        return Form.make(self.dim, deg, out)


class Vec(Value):
    """Vector in the e_1..e_n basis; components are Scalars."""

    comps: tuple[Scalar, ...]

    @staticmethod
    def zero(dim: int) -> Vec:
        return Vec((Fraction(0),) * dim)

    @staticmethod
    def basis(dim: int, i: int) -> Vec:
        return Vec(tuple(Fraction(1 if j == i - 1 else 0) for j in range(dim)))

    def comp(self, i: int) -> Scalar:
        """1-based component along e_i."""
        return self.comps[i - 1]

    @property
    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.comps)

    def __add__(self, other: Vec) -> Vec:
        return Vec(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: Vec) -> Vec:
        return Vec(tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> Vec:
        return Vec(tuple(-a for a in self.comps))

    def __rmul__(self, c: Scalar | int) -> Vec:
        return Vec(tuple(c * a for a in self.comps))

    __mul__ = __rmul__


class LieAlgebra(Value):
    """Structure equations: differentials[k-1] is d(e^k)."""

    name: str
    dim: int
    differentials: tuple[Form, ...]
    param: str | None = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension {self.dim} outside 1..{MAX_DIM}")
        if len(self.differentials) != self.dim:
            raise ValueError("need one differential per covector")
        for f in self.differentials:
            if f.degree != 2 or f.dim != self.dim:
                raise ValueError("differentials must be degree-2 forms over the basis")

    @property
    def parametric(self) -> bool:
        return any(f.parametric for f in self.differentials)

    def differential(self, k: int) -> Form:
        """d(e^k), 1-based."""
        return self.differentials[k - 1]

    def d(self, f: Form) -> Form:
        """Chevalley-Eilenberg differential, extended as an antiderivation."""
        out: dict[Index, Scalar] = {}
        for key, c in f.terms.items():
            for pos, i in enumerate(key):
                rest = key[:pos] + key[pos + 1 :]
                for k2, c2 in self.differential(i).terms.items():
                    srt = _sort_with_sign(k2 + rest)
                    if srt is None:
                        continue
                    idx, sign = srt
                    term = sign * c2 * c
                    out[idx] = out.get(idx, ZERO) + (term if pos % 2 == 0 else -term)
        return Form.make(self.dim, f.degree + 1, out)

    @cached_property
    def coefficient_tables(self) -> tuple[int, list[list[list[list[int]]]]]:
        """(E, [C_0, ..., C_D]), C_d[a][b][c] = E * (mu^d-coefficient of [e_a, e_b]_c)
        in plain ints, 0-based: E clears every rational coefficient and D is the
        highest degree in the parameter, 0 for a rational algebra.  Read-only."""
        n = self.dim
        terms = [
            (k, i, j, c.coeffs if isinstance(c, Poly) else (c,))
            for k, form in enumerate(self.differentials)
            for (i, j), c in form.terms.items()
        ]
        e = linalg.common_denominator(x for *_, cs in terms for x in cs)
        depth = max((len(cs) for *_, cs in terms), default=1)
        tables = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(depth)]
        for k, i, j, cs in terms:
            for table, c in zip(tables, cs):
                x = c.numerator * (e // c.denominator)
                table[i - 1][j - 1][k] = -x
                table[j - 1][i - 1][k] = x
        return e, tables

    @cached_property
    def structure_table(self) -> tuple[int, list[list[list[int]]]]:
        """(E, C) with C[a][b][c] = E * [e_a, e_b]_c: the one coefficient table
        of a rational algebra.  Parametric algebras have none."""
        require_rational(self)
        e, (table,) = self.coefficient_tables
        return e, table

    @property
    def is_valid(self) -> bool:
        """The Jacobi identity, jacobi_sum(C, C) = 0 for every a < b < c, which
        is d^2 = 0; the algebra must be rational."""
        _, t = self.structure_table
        return not any(any(jacobi_sum(t, t, *abc)) for abc in itertools.combinations(range(self.dim), 3))

    def substitute(self, value: Fraction) -> LieAlgebra:
        """Specialize the parameter; the result is parameter-free."""
        subs = tuple(substitute_form(f, value) for f in self.differentials)
        return LieAlgebra(self.name, self.dim, subs, None)


def rescale_covectors(g: LieAlgebra, factors: dict[int, Fraction]) -> LieAlgebra:
    """Pass to the coframe f^k = c_k e^k; structure constants pick up c_k/(c_i c_j)."""
    c = {i: Fraction(factors.get(i, 1)) for i in range(1, g.dim + 1)}
    diffs = tuple(
        Form.make(g.dim, 2, {(i, j): x * c[k] / (c[i] * c[j]) for (i, j), x in f.terms.items()})
        for k, f in enumerate(g.differentials, 1)
    )
    return LieAlgebra(g.name, g.dim, diffs, g.param)


def substitute_form(f: Form, value: Fraction) -> Form:
    """Specialize every parametric coefficient of the form."""
    return Form.make(f.dim, f.degree, {k: substitute(c, value) for k, c in f.terms.items()})


def monomials(dim: int, degree: int) -> list[Index]:
    """All strictly increasing index tuples, lexicographic."""
    return list(itertools.combinations(range(1, dim + 1), degree))


def require_rational(g: LieAlgebra) -> None:
    if g.parametric:
        raise ParametricNotSupported(
            f"{g.name} carries parameter {g.param!r}; substitute a value first"
        )


# ---------------------------------------------------------------------------
# series and cohomology


def jacobi_sum(s, t, a: int, b: int, c: int) -> list:
    """Sum_m (S_abm T_mc + S_bcm T_ma + S_cam T_mb), one entry per basis index.

    Bilinear in the tables S and T; for S = T = C of a structure table (E, C)
    it is E^2 times [[e_a, e_b], e_c] + [[e_b, e_c], e_a] + [[e_c, e_a], e_b].
    """
    acc = [0] * len(t)
    for u, w in ((s[a][b], c), (s[b][c], a), (s[c][a], b)):
        for m, x in enumerate(u):
            if x:
                acc = [y + x * z for y, z in zip(acc, t[m][w])]
    return acc


def scaled_bracket(table, u, v) -> list:
    """Sum_ab u_a v_b C[a][b]: E * [u, v] for coordinate rows u, v of the
    structure table (E, C); the entries have the type of the u_a v_b."""
    out = [0] * len(table)
    for a, x in enumerate(u):
        if not x:
            continue
        row = table[a]
        for b, y in enumerate(v):
            if y and b != a:
                f = x * y
                out = [s + f * t for s, t in zip(out, row[b])]
    return out


def derived_and_central_series(g: LieAlgebra) -> dict:
    """Dimension sequences of the derived and lower central series.

    Each term is spanned by integer rows; brackets go through the structure
    table and spans through fraction-free elimination, so no Fraction is built.
    """
    _, table = g.structure_table
    full = [[int(i == j) for j in range(g.dim)] for i in range(g.dim)]

    def span(pairs) -> list[list[int]]:
        return linalg.echelon([scaled_bracket(table, u, v) for u, v in pairs])[0]

    def run(next_term) -> list[int]:
        # both series start at [g, g]; each term lies in the one before; stop when it stabilizes (at 0 too)
        dims, current, new = [g.dim], full, commutator
        while len(new) < len(current):
            dims.append(len(new))
            current, new = new, next_term(new)
        return dims

    # the brackets of distinct basis vectors span [g, g]
    commutator = span(itertools.combinations(full, 2))
    derived = run(lambda cur: span(itertools.combinations(cur, 2)))
    lower_central = run(lambda cur: span(itertools.product(full, cur)))
    return {
        "derived": derived,
        "lower_central": lower_central,
        "is_solvable": derived[-1] == 0,
        "is_nilpotent": lower_central[-1] == 0,
    }


def _weight_zero_block(table, weights, j: int) -> list[list[int]]:
    """The rows and columns of E * d_j on the monomials of weight sum 0, for the
    table C of (E, C) and integer weights w of the dual basis that grade it
    (C[a][b][k] = 0 unless w_a + w_b = w_k), so that d keeps the weight.

    d e^k = -Sum_{a<b} C_abk / E e^{ab}, extended as an antiderivation on index
    tuples: d e^I = Sum_pos (-1)^pos d e^{I[pos]} ^ e^{rest}.  Sorting
    e^{ab} ^ e^{rest} costs one sign per index of the rest below a and below b.
    """
    n, w = len(table), (0, *weights)

    def positions(degree: int) -> dict[Index, int]:
        zero = (k for k in monomials(n, degree) if not sum(map(w.__getitem__, k)))
        return {key: pos for pos, key in enumerate(zero)}

    row_of, col_of = positions(j), positions(j + 1)
    rows = [[0] * len(col_of) for _ in row_of]
    for rest in monomials(n, j - 1) if j else []:
        target = -sum(map(w.__getitem__, rest))
        free = [t for t in range(1, n + 1) if t not in rest]
        if not (heads := [i for i in free if w[i] == target]):
            continue
        below = [sum(t < x for t in rest) for x in range(n + 1)]
        wedges = [
            (table[a - 1][b - 1], col_of[tuple(sorted(rest + (a, b)))], below[a] + below[b])
            for a, b in itertools.combinations(free, 2)
            if w[a] + w[b] == target
        ]
        for i in heads:
            row = rows[row_of[tuple(sorted(rest + (i,)))]]
            for br, col, flips in wedges:
                if x := br[i - 1]:
                    row[col] += x if (below[i] + flips) % 2 else -x
    return rows


def _divide(coeffs: list[int], y: int) -> tuple[list[int], int]:
    """(q, r) with coeffs = (x - y) q + r, integer polynomials low-first: synthetic division."""
    acc = list(itertools.accumulate(reversed(coeffs), lambda a, c: a * y + c))
    return acc[-2::-1], acc[-1]


def _multiplicity(coeffs: list[int], y: int) -> int:
    """How often x - y divides an integer polynomial (low-first)."""
    m = 0
    while not (qr := _divide(coeffs, y))[1]:
        coeffs, m = qr[0], m + 1
    return m


def _weight_split(g: LieAlgebra) -> tuple[list, tuple[int, ...]]:
    """A table of g and integer weights of its dual basis that grade it, such
    that H*(g) is the cohomology of the monomials of weight sum 0.

    Cartan's L_X = d i_X + i_X d commutes with d and i_X, so the complex splits
    into the generalized eigenspaces of L_X, and each with a nonzero eigenvalue
    is acyclic (Hochschild-Serre, Koszul).  X is the first basis element whose
    E ad has only rational eigenvalues y, not all 0; the new dual basis P holds
    left generalized eigenvectors of E ad X, weighted by y, and the table goes
    over to it.  Without such an X, every weight is 0: the whole complex.
    """
    _, table = g.structure_table
    n = g.dim
    for x in range(n):
        ad = [[table[x][b][c] for b in range(n)] for c in range(n)]  # E ad e_x
        # tr(ad^2) sums the squared eigenvalues: positive when all are rational, not all 0
        if sum(ad[c][b] * ad[b][c] for c in range(n) for b in range(n)) <= 0:
            continue
        _, cp = linalg.char_poly(ad)
        mults = {y: _multiplicity(cp, y) for y in integer_roots(cp)}
        if sum(mults.values()) < n:
            continue
        rows, weights = [], []
        for y, m in mults.items():
            shifted = [[v - y * (r == c) for c, v in enumerate(row)] for r, row in enumerate(ad)]
            vecs = linalg.kernel([list(col) for col in zip(*reduce(linalg.matmul, [shifted] * m))], n)
            rows += [linalg.scaled([v], linalg.common_denominator(v))[0] for v in vecs]
            weights += [y] * len(vecs)
        inverse, _ = linalg.rref([row + [int(i == k) for k in range(n)] for i, row in enumerate(rows)])
        # cols[a] = e'_a, column a of Q = P^-1 over one denominator D; the new table
        # C'[a][b] = P Sum_cd Q_ca Q_db C[c][d] is D^2 E [e'_a, e'_b], with flat[a] the
        # rows d of Sum_c Q_ca C[c] one after the other
        cols = [[row[n + a] for row in inverse] for a in range(n)]
        cols = linalg.scaled(cols, linalg.common_denominator(v for col in cols for v in col))
        flat = linalg.matmul(cols, [[v for row in plane for v in row] for plane in table])
        pt = list(zip(*rows))
        new = [linalg.matmul(linalg.matmul(cols, [f[d * n : d * n + n] for d in range(n)]), pt) for f in flat]
        return new, tuple(weights)
    return table, (0,) * n


def betti_numbers(g: LieAlgebra) -> list[int]:
    """dim H^k for k = 0..n, building and ranking each weight-zero block once."""
    table, weights = _weight_split(g)
    blocks = [_weight_zero_block(table, weights, j) for j in range(g.dim + 1)]
    ranks = [0] + [linalg.rank(d) for d in blocks]  # ranks[j + 1] = rank d_j
    return [len(blocks[k]) - ranks[k + 1] - ranks[k] for k in range(g.dim + 1)]


def cohomology_dim(g: LieAlgebra, k: int) -> int:
    """dim H^k, entry k of `betti_numbers`, and 0 outside 0..n."""
    require_rational(g)
    return betti_numbers(g)[k] if 0 <= k <= g.dim else 0


# ---------------------------------------------------------------------------
# normal ascending flags


class Flag(Value):
    """Ascending covector flag; level i holds i coordinate rows spanning V^i."""

    dim: int
    levels: tuple[tuple[tuple[Scalar, ...], ...], ...]

    def level_rows(self, i: int) -> list[list[Scalar]]:
        """Rows of V^i, 1-based."""
        return [list(r) for r in self.levels[i - 1]]

    @property
    def parametric(self) -> bool:
        return any(isinstance(c, Poly) for lev in self.levels for row in lev for c in row)


def verify_flag(g: LieAlgebra, flag: Flag) -> tuple[bool, str | None]:
    """Check dV^i subset of Lambda^2 V^i for every level; first violation if any."""
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
        # i independent covectors have independent wedges; a failing level names its first covector
        das = [[sum(map(mul, r, table[a][b])) for a, b in pairs] for r in rows]
        if linalg.rank(wedge_rows + das) == len(wedge_rows):
            continue
        for t, da in enumerate(das):
            if linalg.rank(wedge_rows + [da]) != len(wedge_rows):
                return False, f"d of covector {t + 1} in level {i} leaves Lambda^2 V^{i}"
    return True, None


def _common_eigenvector(table, polys: list) -> list[Fraction] | None:
    """The first common eigenvector of the adjoint maps of an integer table, or None.

    Depth first over the integer eigenvalues of ad e_1, ad e_2, ..., each in
    ascending order, skipping zero maps and cutting a branch once the common
    eigenspace is 0; the vector is the last row of the RREF of the first
    nonzero one, so its leading entry is 1.  polys[i] is the characteristic
    polynomial of ad e_i, computed here and stored when None.
    """
    n = len(table)
    # maps[i][r][j] = r-component of [e_i, e_j]
    maps = [[[table[i][j][r] for j in range(n)] for r in range(n)] for i in range(n)]

    @cache
    def eigenvalues(i: int) -> list[int]:
        polys[i] = polys[i] or linalg.char_poly(maps[i])[1]  # d = 1 on an integer table
        return sorted(int(y) for y in rational_roots(polys[i]))

    stack = [([], 0)]  # (rows whose annihilator is the current subspace, next map)
    while stack:
        rows, i = stack.pop()
        perp = linalg.echelon(rows)[0]  # at most n rows: the cuts stay reduced
        if len(perp) == n:
            continue
        while i < n and not any(map(any, maps[i])):
            i += 1
        if i == n:
            return linalg.rref(linalg.kernel(perp, n))[0][-1]
        for y in reversed(eigenvalues(i)):  # popped in ascending order
            # the rows of M - y I annihilate exactly the y-eigenspace of M
            stack.append((perp + [[x - y * (r == c) for c, x in enumerate(row)] for r, row in enumerate(maps[i])], i + 1))
    return None


def search_flag(g: LieAlgebra) -> Flag | None:
    """A normal ascending flag of g, or None when g has none.

    The flag annihilates a full chain of ideals, built one 1-dimensional ideal
    <v> at a time: v is `_common_eigenvector` of the current quotient, which
    the next quotient divides out.  Greedy is exact: if g has a full chain of
    ideals, so does g/I for every ideal I (the images, repeats dropped), so a
    quotient without one means g has none.  The search is complete, since a
    common eigenvector of rational maps has rational eigenvalues and every
    combination of them is tried.  Every table is a positive multiple of the
    bracket table of its quotient, in plain ints: the same eigenspaces, their
    eigenvalues in the same order.  idx holds g's basis index behind each
    quotient coordinate; level i annihilates the first n - i lifted vectors.
    """
    n = g.dim
    table, idx, lifted, polys = g.structure_table[1], list(range(n)), [], [None] * n
    while table:
        v = _common_eigenvector(table, polys)
        if v is None:
            return None
        u = linalg.scaled([v], linalg.common_denominator(v))[0]  # primitive, u[pivot] = p > 0
        at = dict(zip(idx, u))
        lifted.append([at.get(i, 0) for i in range(n)])
        pivot = next(i for i, x in enumerate(u) if x)
        p, keep = u[pivot], [i for i in range(len(u)) if i != pivot]  # p < 0 would reverse the order
        # p ad e_k on the quotient by <u> has p^n chi_k(t / p) / (t - p lam_k), ad e_k u = lam_k u
        for k in keep:
            if cp := polys[k]:
                rescaled = [c * p ** (len(cp) - 1 - e) for e, c in enumerate(cp)]
                polys[k] = _divide(rescaled, sum(map(mul, u, (w[pivot] for w in table[k]))))[0]
        # p times each bracket w projected to w - w[pivot] v, pivot coordinate dropped
        table = [[[w[i] * p - w[pivot] * u[i] for i in keep] for w in (table[a][b] for b in keep)] for a in keep]
        polys = [polys[k] for k in keep]
        del idx[pivot]
    levels = [linalg.kernel(lifted[: n - i], n) for i in range(1, n + 1)]
    flag = Flag(n, tuple(tuple(map(tuple, rows)) for rows in levels))
    ok, why = verify_flag(g, flag)
    if not ok:
        raise InternalError(f"constructed flag fails verification: {why}")
    return flag
