"""Exact scalar arithmetic: rationals and univariate polynomials over them.

A Scalar is either a ``fractions.Fraction`` or a ``Poly`` in one named
indeterminate with Fraction coefficients.  Arithmetic between the two mixes
freely; a Poly that degenerates to degree 0 collapses back to a Fraction, so
the rest of the package can treat "plain number" and "number depending on a
parameter" uniformly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import IndeterminateMismatch, ZeroPolynomial
from .linalg import _primitive

ZERO = Fraction(0)
ONE = Fraction(1)


class Value:
    """Base of qcalc's data classes, cheap to import (README, Start-up cost).

    A subclass's annotations are its fields, in order; a class attribute of the
    same name is a default.  Gives a positional and keyword __init__, __eq__,
    __hash__ and __repr__ over the fields, which sit in the instance __dict__,
    and refuses assignment."""

    def __init_subclass__(cls) -> None:
        if "__annotations__" in cls.__dict__:  # else it keeps its base's fields
            cls._fields = tuple(cls.__annotations__)
            cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        values = dict(self._defaults)
        values.update(zip(self._fields, args), **kwargs)
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {self._fields}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(self.__dict__[n] for n in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


def replace(obj: Value, **changes) -> Value:
    """A copy of obj with the given fields changed."""
    return type(obj)(**dict(zip(obj._fields, obj._values()), **changes))


class Poly(Value):
    """Univariate polynomial, coefficients lowest degree first.

    Construct via the module helpers (``poly``, ``variable``) or arithmetic.
    The coefficient tuple has no trailing zeros and length >= 2: degree-0
    results collapse to Fraction before they escape, so any Poly an outside
    caller sees genuinely depends on its indeterminate.
    """

    var: str
    coeffs: tuple[Fraction, ...]

    def __init__(self, var: str, coeffs: tuple[Fraction, ...]) -> None:
        fields = self.__dict__  # set directly: one Poly per arithmetic step
        fields["var"], fields["coeffs"] = var, coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __add__(self, other: Scalar | int) -> Scalar:
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        other = _coerce(other, self.var)
        n = max(len(self.coeffs), len(other.coeffs))
        return _make(self.var, [self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other: Scalar | int) -> Scalar:
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return self + (-_coerce(other, self.var))

    def __rsub__(self, other: Scalar | int) -> Scalar:
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return _coerce(other, self.var) + (-self)

    def __mul__(self, other: Scalar | int) -> Scalar:
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        other = _coerce(other, self.var)
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return _make(self.var, out)

    __rmul__ = __mul__

    def __truediv__(self, other: Fraction | int) -> Scalar:
        if isinstance(other, Poly):
            raise TypeError("division by a polynomial is not supported")
        q = Fraction(other)
        return _make(self.var, [c / q for c in self.coeffs])

    def __bool__(self) -> bool:
        return True  # normalized Polys are nonzero by construction

    def substitute(self, value: Fraction) -> Fraction:
        """Evaluate at an exact rational point (Horner)."""
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __str__(self) -> str:
        """High degree first, like "3*mu^2+4*mu+1"."""
        terms: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                mono = str(c)
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                mono = f"{head}{self.var}" + (f"^{k}" if k > 1 else "")
            if not terms:
                terms.append(mono)
            elif mono.startswith("-"):
                terms.append(f"-{mono[1:]}")
            else:
                terms.append(f"+{mono}")
        return "".join(terms)


Scalar = Fraction | Poly


def _coerce(x: Scalar | int, var: str) -> Poly:
    if isinstance(x, Poly):
        if x.var != var:
            raise IndeterminateMismatch(f"cannot mix {x.var!r} with {var!r}")
        return x
    return Poly(var, (Fraction(x),))


def _make(var: str, coeffs: list[Fraction]) -> Scalar:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return ZERO
    if len(coeffs) == 1:
        return coeffs[0]
    return Poly(var, tuple(coeffs))


def poly(var: str, *coeffs: int | Fraction) -> Scalar:
    """Polynomial from coefficients, lowest degree first; may collapse."""
    return _make(var, [Fraction(c) for c in coeffs])


def variable(var: str) -> Poly:
    """The monomial ``var`` itself."""
    return Poly(var, (ZERO, ONE))


def is_zero(x: Scalar) -> bool:
    return isinstance(x, Fraction) and x == 0


def substitute(x: Scalar, value: Fraction) -> Fraction:
    """Evaluate a scalar at a parameter value (identity on Fractions)."""
    if isinstance(x, Poly):
        return x.substitute(value)
    return x


def rational_roots(p: Poly | list[Fraction] | list[int]) -> set[Fraction]:
    """All rational roots, without multiplicity.

    Accepts a Poly or a raw low-first coefficient list.  The coefficients are
    cleared to a primitive integer polynomial a_n x^n + ... + a_0, and
    y = a_n x turns it into the monic a_n^(n-1) p(y / a_n), whose rational
    roots are integers (``integer_roots``).  The zero polynomial is rejected
    with ZeroPolynomial since every value would qualify.
    """
    coeffs = list(p.coeffs) if isinstance(p, Poly) else list(p)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ZeroPolynomial("every value is a root of 0")
    ints = _primitive(coeffs)
    lead, n = ints[-1], len(ints) - 1
    monic = [c * lead ** (n - 1 - k) for k, c in enumerate(ints[:-1])] + [1]
    return {Fraction(y, lead) for y in integer_roots(monic)}


def integer_roots(coeffs: list[int]) -> list[int]:
    """Distinct integer roots of an integer polynomial (low-first), ascending.

    Polynomial in the bit size of the coefficients.  The squarefree part's
    Sturm sequence counts the real roots in any interval (lo, hi]; bisection
    on integers narrows each interval that holds a root down to width 1, and
    its one integer hi is a root if the polynomial vanishes there exactly.
    Every integer root divides the lowest nonzero coefficient, and Fujiwara's
    bound |x| <= 2 max_k |a_k / a_n|^(1/(n-k)), rounded up to a power of two
    through bit lengths, bounds every root; the search takes the smaller.
    """
    f = _trim(list(coeffs))
    if not f:
        raise ZeroPolynomial("every value is a root of 0")
    low = next(k for k, c in enumerate(f) if c != 0)
    roots = [0] if low else []
    if len(f) - low == 1:
        return roots
    f = _squarefree(f[low:])
    seq = _sturm(f)
    n, lead = len(f) - 1, abs(f[-1]).bit_length() - 1  # 2^lead <= |a_n|
    e = max(-((lead - abs(c).bit_length()) // (n - k)) for k, c in enumerate(f[:-1]))
    bound = min(abs(f[0]), 2 ** (max(e, 0) + 1))
    stack = [(-bound - 1, bound, _variations(seq, -bound - 1), _variations(seq, bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1:  # one simple root in (lo, hi]: f changes sign across it
            f_hi = _eval(f, hi)
            while f_hi and hi - lo > 1:
                mid = (lo + hi) // 2
                if (f_mid := _eval(f, mid)) and (f_mid > 0) != (f_hi > 0):
                    lo = mid
                else:
                    hi, f_hi = mid, f_mid
            if not f_hi:
                roots.append(hi)
            continue
        if hi - lo == 1:
            if _eval(f, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = _variations(seq, mid)
        stack.append((mid, hi, v_mid, v_hi))
        stack.append((lo, mid, v_lo, v_mid))
    return sorted(roots)


def poly_gcd(polys: list[Poly]) -> Scalar:
    """Monic greatest common divisor of nonempty Polys in one indeterminate;
    a plain 1 when they share no factor."""
    var = polys[0].var
    g = _primitive(list(polys[0].coeffs))
    for p in polys[1:]:
        g = _int_gcd(g, _primitive(list(_coerce(p, var).coeffs)))
    return _make(var, [Fraction(c, g[-1]) for c in g])


# Integer polynomials below are low-first lists of ints without trailing
# zeros; the empty list is the zero polynomial.  `_primitive` keeps the sign:
# rational_roots, poly_gcd, _int_gcd and _squarefree/_sturm give the same for -p.


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _eval(p: list[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a modulo b."""
    r = list(a)
    if b[-1] < 0:
        b = [-c for c in b]
    lead = b[-1]
    while len(r) >= len(b):
        top, shift = r[-1], len(r) - len(b)
        r = [lead * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        _trim(r)
    return r


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd by the primitive remainder sequence."""
    while b:
        r = _prem(a, b)
        a, b = b, (_primitive(r) if r else r)
    return _primitive(a)


def _derivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _squarefree(f: list[int]) -> list[int]:
    """f / gcd(f, f'): the same roots, each simple; primitive."""
    g = _int_gcd(_primitive(f), _primitive(_derivative(f)))
    q = [0] * (len(f) - len(g) + 1)
    r = list(f)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(g) - 1] // g[-1]
        for i, c in enumerate(g):
            r[k + i] -= q[k] * c
    return _primitive(q)


def _sturm(f: list[int]) -> list[list[int]]:
    """Sturm sequence of a squarefree f, each entry a positive multiple of the
    classical one, so sign variations are unchanged."""
    seq = [f, _derivative(f)]
    while len(seq[-1]) > 1:
        r = _prem(seq[-2], seq[-1])
        content = gcd(*r)
        seq.append([-c // content for c in r])
    return seq


def _variations(seq: list[list[int]], x: int) -> int:
    """Sign changes along the sequence at x, zeros skipped."""
    count, prev = 0, 0
    for p in seq:
        v = _eval(p, x)
        if v:
            if prev and (v > 0) != (prev > 0):
                count += 1
            prev = v
    return count
