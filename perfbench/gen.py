"""Seeded input generator for the qcalc benchmark.

The generator works in its own `fractions.Fraction` arithmetic and never
imports qcalc, so the inputs do not depend on the code under test.

A rotated input is a catalog algebra written in a new orthonormal coframe
e' = A e with A = diag(A_H, A_V):

* A_H in SO(4) is x -> p x q-bar for rational unit quaternions p and q;
* A_V in SO(3) is v -> r v r-bar for a rational unit quaternion r.

Each unit quaternion comes from a point u of Q^3 by inverse stereographic
projection, q = (1 - |u|^2, 2u) / (1 + |u|^2), where u has height exactly
h: every coordinate is n/m with |n| <= h and 1 <= m <= h, and at least one
has max(|n|, m) = h in lowest terms.  The height h sets how large the
numerators and denominators of the new structure constants get.  The
omegas of the new coframe are recomputed as d eta' restricted to H, divided
by the scale, so the qc line stays consistent by construction.

Coefficients are pairs (c0, c1) standing for c0 + c1 * mu; the parameter
only occurs in `prop31_family`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

DIM = 7
HORIZONTAL = (1, 2, 3, 4)
VERTICAL = (5, 6, 7)
PARAM = "mu"

# Structure equations of the catalog algebras, d e_i = sum c_{jk} e_j ^ e_k,
# keyed by target i and the two-digit monomial jk with j < k.  A coefficient
# is a rational string, or a pair of strings (c0, c1) for c0 + c1 * mu.
# (scale, equations) per algebra, transcribed from `qcalc catalog show`.
SOURCES: dict[str, tuple[int, dict[int, dict[int, object]]]] = {
    "heisenberg": (1, {
        5: {12: "1", 34: "1"},
        6: {13: "1", 24: "-1"},
        7: {14: "1", 23: "1"},
    }),
    "g1": (2, {
        2: {15: "1/2", 34: "-1", 46: "1/2"},
        3: {16: "1/2", 24: "1", 45: "-1/2"},
        4: {14: "-2"},
        5: {12: "2", 34: "2", 46: "-1"},
        6: {13: "2", 24: "-2", 45: "1"},
        7: {14: "2", 23: "2", 56: "-1/2"},
    }),
    "g2": (2, {
        2: {12: "2/3", 15: "1/6", 34: "-1/3", 46: "1/6"},
        3: {13: "-2/3", 16: "1/6", 24: "-1", 45: "-1/6"},
        4: {14: "-2/3"},
        5: {12: "2", 34: "2", 46: "-1"},
        6: {13: "2", 24: "-2", 45: "1"},
        7: {14: "2", 23: "2", 56: "-1/6"},
    }),
    "prop31_family": (1, {
        2: {12: ("1", "1"), 15: ("0", "-1"), 34: ("0", "1"), 46: ("0", "-1")},
        3: {13: ("-1", "-1"), 24: ("-2", "-3"), 16: ("0", "-1"), 45: ("0", "1")},
        4: {14: ("0", "2")},
        5: {12: "1", 34: "1", 46: "-1"},
        6: {13: "1", 24: "-1", 45: "1"},
        7: {14: "1", 23: "1", 56: ("0", "1")},
    }),
}

ZERO = (Fraction(0), Fraction(0))


def source_equations(name: str) -> tuple[Fraction, dict[int, dict[tuple[int, int], tuple[Fraction, Fraction]]]]:
    """(scale, equations) of a catalog algebra with coefficients as (c0, c1)."""
    scale, raw = SOURCES[name]
    eqs: dict[int, dict[tuple[int, int], tuple[Fraction, Fraction]]] = {}
    for i in range(1, DIM + 1):
        eqs[i] = {}
        for mono, c in raw.get(i, {}).items():
            pair = (Fraction(c[0]), Fraction(c[1])) if isinstance(c, tuple) else (Fraction(c), Fraction(0))
            eqs[i][divmod(mono, 10)] = pair
    return Fraction(scale), eqs


# ---------------------------------------------------------------------------
# quaternions and rotations


def qmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def conj(q):
    return (q[0], -q[1], -q[2], -q[3])


def unit_quaternion(u) -> tuple[Fraction, ...]:
    """Inverse stereographic projection of u in Q^3 onto the unit 3-sphere."""
    s = sum(x * x for x in u)
    return tuple(x / (1 + s) for x in (1 - s, 2 * u[0], 2 * u[1], 2 * u[2]))


def so4(p, q) -> list[list[Fraction]]:
    """Matrix of x -> p x q-bar on H = R^4; column j is the image of the jth unit."""
    cols = []
    for j in range(4):
        unit = tuple(Fraction(1 if k == j else 0) for k in range(4))
        cols.append(qmul(qmul(p, unit), conj(q)))
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def so3(r) -> list[list[Fraction]]:
    """Matrix of v -> r v r-bar on the imaginary quaternions."""
    cols = []
    for j in range(3):
        unit = tuple(Fraction(1 if k == j + 1 else 0) for k in range(4))
        cols.append(qmul(qmul(r, unit), conj(r))[1:])
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def block_matrix(a_h, a_v) -> list[list[Fraction]]:
    """A = diag(A_H, A_V) on the 7 coframe positions."""
    a = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i, hi in enumerate(HORIZONTAL):
        for j, hj in enumerate(HORIZONTAL):
            a[hi - 1][hj - 1] = a_h[i][j]
    for i, vi in enumerate(VERTICAL):
        for j, vj in enumerate(VERTICAL):
            a[vi - 1][vj - 1] = a_v[i][j]
    return a


def point_height(u) -> int:
    return max(max(abs(x.numerator), x.denominator) for x in u)


def _point(rng: random.Random, h: int) -> tuple[Fraction, Fraction, Fraction]:
    while True:
        u = tuple(Fraction(rng.randint(-h, h), rng.randint(1, h)) for _ in range(3))
        if any(u) and point_height(u) == h:
            return u


def random_rotation(rng: random.Random, h: int):
    """(A_H, A_V) of height h with every entry nonzero, so inputs come out dense."""
    while True:
        a_h = so4(unit_quaternion(_point(rng, h)), unit_quaternion(_point(rng, h)))
        a_v = so3(unit_quaternion(_point(rng, h)))
        if all(x != 0 for row in a_h + a_v for x in row):
            return a_h, a_v


def change_coframe(eqs, a):
    """Structure equations in the coframe e'_a = sum_i A[a][i] e_i, A orthogonal.

    With e_j = sum_b A[b][j] e'_b, the coefficient of e'_b ^ e'_c (b < c) in
    d e'_a is sum_i A[a][i] sum_{j<k} c^i_{jk} (A[b][j] A[c][k] - A[c][j] A[b][k]).
    """
    out = {}
    for t in range(1, DIM + 1):
        row = {}
        for b in range(1, DIM + 1):
            for c in range(b + 1, DIM + 1):
                c0 = c1 = Fraction(0)
                for i in range(1, DIM + 1):
                    w = a[t - 1][i - 1]
                    if w == 0:
                        continue
                    for (j, k), (x0, x1) in eqs[i].items():
                        f = w * (a[b - 1][j - 1] * a[c - 1][k - 1] - a[c - 1][j - 1] * a[b - 1][k - 1])
                        if f:
                            c0 += f * x0
                            c1 += f * x1
                if c0 or c1:
                    row[(b, c)] = (c0, c1)
        out[t] = row
    return out


def omegas(eqs, scale: Fraction) -> list[dict[tuple[int, int], Fraction]]:
    """omega_r = (d eta_r restricted to H) / scale; must not involve mu."""
    hset = set(HORIZONTAL)
    out = []
    for v in VERTICAL:
        om = {}
        for (j, k), (c0, c1) in eqs[v].items():
            if j in hset and k in hset:
                if c1:
                    raise ValueError("horizontal part of d eta depends on the parameter")
                om[(j, k)] = c0 / scale
        out.append(om)
    return out


# ---------------------------------------------------------------------------
# .alg text


def _coeff(c0: Fraction, c1: Fraction) -> tuple[str, str]:
    """(sign, body) of one coefficient in the .alg grammar."""
    if not c1:
        return ("-" if c0 < 0 else "+"), f"({abs(c0)})"
    lin = f"{abs(c1)} {PARAM}"
    if not c0:
        return ("-" if c1 < 0 else "+"), f"({lin})"
    return "+", f"({c0} {'-' if c1 < 0 else '+'} {lin})"


def form_text(terms: dict[tuple[int, int], tuple[Fraction, Fraction]]) -> str:
    """A 2-form in the .alg grammar, e.g. `-(1/2)e12 + (3/5 - 2/5 mu)e34`."""
    text = ""
    for (j, k), c in sorted(terms.items()):
        sign, body = _coeff(*c)
        if not text:
            text = ("-" if sign == "-" else "") + f"{body}e{j}{k}"
        else:
            text += f" {sign} {body}e{j}{k}"
    return text or "0"


def alg_text(name: str, eqs, scale: Fraction, parametric: bool) -> str:
    lines = [f"algebra {name} dim {DIM}" + (f" param {PARAM}" if parametric else "")]
    for i in range(1, DIM + 1):
        lines.append(f"d e{i} = {form_text(eqs[i])}")
    h = " ".join(map(str, HORIZONTAL))
    v = " ".join(map(str, VERTICAL))
    lines.append(f"qc horizontal {h} vertical {v} scale {scale}")
    for r, om in enumerate(omegas(eqs, scale), start=1):
        lines.append(f"omega{r} = {form_text({k: (c, Fraction(0)) for k, c in om.items()})}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# input properties


def nnz(eqs) -> int:
    return sum(len(row) for row in eqs.values())


def height_bits(eqs) -> int:
    """Largest bit length of any numerator or denominator among the coefficients."""
    bits = 0
    for row in eqs.values():
        for pair in row.values():
            for c in pair:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def matrix_strings(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def rotated_input(rng: random.Random, source: str, h: int, name: str) -> tuple[str, dict]:
    """(.alg text, manifest entry) for one seeded rotation of a catalog algebra."""
    scale, eqs = source_equations(source)
    a_h, a_v = random_rotation(rng, h)
    new = change_coframe(eqs, block_matrix(a_h, a_v))
    parametric = source == "prop31_family"
    entry = {
        "source": source,
        "h": h,
        "A_H": matrix_strings(a_h),
        "A_V": matrix_strings(a_v),
        "nnz": nnz(new),
        "height_bits": height_bits(new),
    }
    return alg_text(name, new, scale, parametric), entry


def generate(seed: int, plan: list[tuple[str, int]], outdir: Path) -> dict[str, dict]:
    """Write one rotated .alg file per (source, h) in `plan`; return the manifest.

    The same seed and plan give byte-identical files.  The manifest maps each
    input name to its file, source, height h, A_H, A_V, nnz and height_bits.
    """
    rng = random.Random(seed)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for n, (source, h) in enumerate(plan):
        name = f"rot_{source}_h{h}_{n}"
        text, entry = rotated_input(rng, source, h, name)
        entry["file"] = str(outdir / f"{name}.alg")
        (outdir / f"{name}.alg").write_text(text, encoding="utf-8")
        manifest[name] = entry
    return manifest
