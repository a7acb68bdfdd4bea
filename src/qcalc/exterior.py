"""Lie algebras as structure equations, exterior forms, and ascending flags.

Everything is basis-explicit: a Lie algebra of dimension n (n <= 9) is a list
of degree-2 forms d(e^1) .. d(e^n) over the coframe e^1..e^n, and the bracket
is recovered through the convention d(alpha)(X, Y) = -alpha([X, Y]).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction

from . import linalg
from .errors import InternalError, InvalidFlag, ParametricNotSupported
from .scalars import ZERO, Poly, Scalar, is_zero, rational_roots, substitute

Index = tuple[int, ...]

MAX_DIM = 9


def _sort_with_sign(idx: tuple[int, ...]) -> tuple[Index, int] | None:
    """Sort an index tuple, tracking permutation parity; None if repeated."""
    if len(set(idx)) != len(idx):
        return None
    perm = list(idx)
    sign = 1
    for i in range(len(perm)):
        for j in range(len(perm) - 1 - i):
            if perm[j] > perm[j + 1]:
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
                sign = -sign
    return tuple(perm), sign


@dataclass(frozen=True)
class Form:
    """Sparse exterior form: strictly increasing index tuples -> coefficients."""

    dim: int
    degree: int
    terms: dict[Index, Scalar] = field(default_factory=dict)

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

    @staticmethod
    def covector(dim: int, i: int) -> Form:
        return Form.make(dim, 1, {(i,): Fraction(1)})

    def coeff(self, idx: Index) -> Scalar:
        return self.terms.get(idx, ZERO)

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

    def evaluate(self, vectors: list[Vec]) -> Scalar:
        """Alternating multilinear evaluation (determinant expansion)."""
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} vectors, got {len(vectors)}")
        total: Scalar = Fraction(0)
        for key, c in self.terms.items():
            rows = [[v.comp(i) for v in vectors] for i in key]
            total = total + c * _det(rows)
        return total

    def interior(self, v: Vec) -> Form:
        """v ⌟ f, contraction in the first slot."""
        if self.degree == 0:
            raise ValueError("interior product with a 0-form")
        out: dict[Index, Scalar] = {}
        for key, c in self.terms.items():
            for pos, i in enumerate(key):
                comp = v.comp(i)
                if is_zero(comp):
                    continue
                rest = key[:pos] + key[pos + 1 :]
                sign = -1 if pos % 2 else 1
                out[rest] = out.get(rest, Fraction(0)) + sign * comp * c
        return Form.make(self.dim, self.degree - 1, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.terms.items():
            name = "e" + "".join(str(i) for i in key) if key else "1"
            parts.append(f"({c})*{name}")
        return " + ".join(parts)


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


@dataclass(frozen=True)
class Vec:
    """Vector in the e_1..e_n basis; components are Scalars."""

    comps: tuple[Scalar, ...]

    @staticmethod
    def zero(dim: int) -> Vec:
        return Vec((Fraction(0),) * dim)

    @staticmethod
    def basis(dim: int, i: int) -> Vec:
        return Vec(tuple(Fraction(1 if j == i - 1 else 0) for j in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.comps)

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


def dot(u: Vec, v: Vec) -> Scalar:
    """The identity metric on the declared basis."""
    total: Scalar = Fraction(0)
    for a, b in zip(u.comps, v.comps):
        total = total + a * b
    return total


@dataclass(frozen=True)
class LieAlgebra:
    """Structure equations: differentials[k-1] is d(e^k)."""

    name: str
    dim: int
    differentials: tuple[Form, ...]
    param: str | None = None

    def __post_init__(self) -> None:
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

    def jacobi_check(self) -> list[Form]:
        """d(d e^k) for every k with nonzero result; empty means Lie algebra."""
        return [dd for k in range(1, self.dim + 1) if not (dd := self.d(self.differential(k))).is_zero]

    @property
    def is_valid(self) -> bool:
        return not self.jacobi_check()

    def bracket(self, i: int, j: int) -> Vec:
        """[e_i, e_j]; k-component is -(d e^k)(e_i, e_j)."""
        comps = []
        for k in range(1, self.dim + 1):
            if i == j:
                comps.append(Fraction(0))
            elif i < j:
                comps.append(-self.differential(k).coeff((i, j)))
            else:
                comps.append(self.differential(k).coeff((j, i)))
        return Vec(tuple(comps))

    def bracket_vec(self, u: Vec, v: Vec) -> Vec:
        out = Vec.zero(self.dim)
        for i in range(1, self.dim + 1):
            ci = u.comp(i)
            if is_zero(ci):
                continue
            for j in range(1, self.dim + 1):
                cj = v.comp(j)
                if is_zero(cj) or i == j:
                    continue
                out = out + (ci * cj) * self.bracket(i, j)
        return out

    def substitute(self, value: Fraction) -> LieAlgebra:
        """Specialize the parameter; the result is parameter-free."""
        subs = tuple(substitute_form(f, value) for f in self.differentials)
        return LieAlgebra(self.name, self.dim, subs, None)


def substitute_form(f: Form, value: Fraction) -> Form:
    """Specialize every parametric coefficient of the form."""
    return Form.make(f.dim, f.degree, {k: substitute(c, value) for k, c in f.terms.items()})


def monomials(dim: int, degree: int) -> list[Index]:
    """All strictly increasing index tuples, lexicographic."""
    return list(itertools.combinations(range(1, dim + 1), degree))


def form_coords(f: Form, basis: list[Index]) -> list[Fraction]:
    """Coefficient row of a parameter-free form over a monomial basis."""
    row = []
    for key in basis:
        c = f.coeff(key)
        if isinstance(c, Poly):
            raise ParametricNotSupported("form has parametric coefficients")
        row.append(c)
    return row


def require_rational(g: LieAlgebra) -> None:
    if g.parametric:
        raise ParametricNotSupported(
            f"{g.name} carries parameter {g.param!r}; substitute a value first"
        )


# ---------------------------------------------------------------------------
# series and cohomology


def _span_rows(vectors: list[Vec]) -> list[list[Fraction]]:
    rows = [list(v.comps) for v in vectors if not v.is_zero]
    red, _ = linalg.rref(rows)
    return red


def _span_bracket(g: LieAlgebra, a_rows: list[list[Fraction]], b_rows) -> list[list[Fraction]]:
    prods = [
        g.bracket_vec(Vec(tuple(u)), Vec(tuple(v)))
        for u in a_rows
        for v in b_rows
    ]
    return _span_rows(prods)


def derived_and_central_series(g: LieAlgebra) -> dict:
    """Dimension sequences of the derived and lower central series."""
    require_rational(g)
    full = linalg.identity(g.dim)

    def run(next_term) -> list[int]:
        dims = [g.dim]
        current = full
        while True:
            new = next_term(current)
            ndim = len(new)
            if ndim == len(current):
                break
            dims.append(ndim)
            current = new
            if ndim == 0:
                break
        return dims

    derived = run(lambda cur: _span_bracket(g, cur, cur))
    lower_central = run(lambda cur: _span_bracket(g, full, cur))
    return {
        "derived": derived,
        "lower_central": lower_central,
        "is_solvable": derived[-1] == 0,
        "is_nilpotent": lower_central[-1] == 0,
    }


def _rank_d(g: LieAlgebra, j: int) -> int:
    """Rank of the differential d_j from j-forms to (j+1)-forms."""
    if j < 0 or j >= g.dim:
        return 0
    target = monomials(g.dim, j + 1)
    rows = [
        form_coords(g.d(Form.make(g.dim, j, {key: Fraction(1)})), target)
        for key in monomials(g.dim, j)
    ]
    return linalg.rank(rows)


def cohomology_dim(g: LieAlgebra, k: int) -> int:
    """dim H^k = dim ker(d_k) - rank(d_{k-1}), over the rationals."""
    require_rational(g)
    if k < 0 or k > g.dim:
        return 0
    return len(monomials(g.dim, k)) - _rank_d(g, k) - _rank_d(g, k - 1)


def betti_numbers(g: LieAlgebra) -> list[int]:
    """dim H^k for k = 0..n, building and ranking each differential once."""
    require_rational(g)
    ranks = [_rank_d(g, j) for j in range(-1, g.dim + 1)]  # ranks[j + 1] = rank d_j
    return [len(monomials(g.dim, k)) - ranks[k + 1] - ranks[k] for k in range(g.dim + 1)]


# ---------------------------------------------------------------------------
# normal ascending flags


@dataclass(frozen=True)
class Flag:
    """Ascending covector flag; level i holds i coordinate rows spanning V^i."""

    dim: int
    levels: tuple[tuple[tuple[Scalar, ...], ...], ...]

    def level_rows(self, i: int) -> list[list[Scalar]]:
        """Rows of V^i, 1-based."""
        return [list(r) for r in self.levels[i - 1]]


def _flag_rational_rows(flag: Flag) -> None:
    for lev in flag.levels:
        for row in lev:
            if any(isinstance(c, Poly) for c in row):
                raise ParametricNotSupported("flag has parametric covectors")


def verify_flag(g: LieAlgebra, flag: Flag) -> tuple[bool, str | None]:
    """Check dV^i subset of Lambda^2 V^i for every level; first violation if any."""
    require_rational(g)
    _flag_rational_rows(flag)
    n = g.dim
    if flag.dim != n or len(flag.levels) != n:
        raise InvalidFlag(f"flag must have {n} levels over dimension {n}")
    rank_here = None  # rank of level i, when level i - 1's containment check computed it
    for i in range(1, n + 1):
        rows = flag.level_rows(i)
        if len(rows) != i or any(len(r) != n for r in rows):
            raise InvalidFlag(f"level {i} must hold {i} covectors of length {n}")
        if (linalg.rank(rows) if rank_here is None else rank_here) != i:
            raise InvalidFlag(f"level {i} covectors are linearly dependent")
        if i < n:
            above = flag.level_rows(i + 1)
            rank_here = linalg.rank(above)
            if linalg.rank(above + rows) != rank_here:
                raise InvalidFlag(f"level {i} is not contained in level {i + 1}")

    basis2 = monomials(n, 2)
    for i in range(1, n + 1):
        rows = flag.level_rows(i)
        one_forms = [
            Form.make(n, 1, {(j + 1,): r[j] for j in range(n)}) for r in rows
        ]
        wedge_rows = [
            form_coords(one_forms[s].wedge(one_forms[t]), basis2)
            for s in range(i)
            for t in range(s + 1, i)
        ]
        wedge_rank = linalg.rank(wedge_rows)
        for t, alpha in enumerate(one_forms):
            da = form_coords(g.d(alpha), basis2)
            if any(c != 0 for c in da) and linalg.rank(wedge_rows + [da]) != wedge_rank:
                return False, f"d of covector {t + 1} in level {i} leaves Lambda^2 V^{i}"
    return True, None


def _bracket_table(g: LieAlgebra) -> list[list[list[Scalar]]]:
    """table[i][j][k] = [e_i, e_j]_k (0-based), read off the nonzero terms of each d e^k."""
    n = g.dim
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for k, form in enumerate(g.differentials):
        for (i, j), c in form.terms.items():
            table[i - 1][j - 1][k] = -c
            table[j - 1][i - 1][k] = c
    return table


def _table_bracket(table, u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    n = len(table)
    out = [Fraction(0)] * n
    for i in range(n):
        if u[i] == 0:
            continue
        for j in range(n):
            if v[j] == 0:
                continue
            w = table[i][j]
            f = u[i] * v[j]
            for k in range(n):
                out[k] += f * w[k]
    return out


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


def search_flag(g: LieAlgebra) -> Flag | None:
    """Best-effort rational flag search through 1-dimensional ideal quotients."""
    require_rational(g)
    chain = _find_ideal_chain(_bracket_table(g))
    if chain is None:
        return None
    n = g.dim
    levels = []
    for i in range(1, n + 1):
        if i == n:
            rows = linalg.identity(n)
        else:
            rows = linalg.kernel(chain[n - i - 1], n)
        levels.append(tuple(tuple(r) for r in rows))
    flag = Flag(n, tuple(levels))
    ok, why = verify_flag(g, flag)
    if not ok:
        raise InternalError(f"constructed flag fails verification: {why}")
    return flag
