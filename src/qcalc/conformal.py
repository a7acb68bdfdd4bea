"""Kulkarni-Nomizu products and the qc conformal curvature tensor.

Everything here lives on the four horizontal directions: rank-2 inputs are
4x4 matrices indexed by horizontal position, the Kulkarni-Nomizu product is
a nested 4x4x4x4 list, and W^qc is an integer `Curvature` on positions 1-4.
"""

from __future__ import annotations

from .biquard import Curvature, Pipeline
from .linalg import common_denominator, matmul, scaled
from .qc import Matrix4


def kulkarni_nomizu(mu: Matrix4, nu: Matrix4) -> list:
    """(mu @ nu)(X,Y,Z,V) = mu(X,Z)nu(Y,V) + mu(Y,V)nu(X,Z) - mu(Y,Z)nu(X,V) - mu(X,V)nu(Y,Z)."""
    r = range(4)
    return [
        [
            [
                [
                    mu[a][c] * nu[b][d] + mu[b][d] * nu[a][c] - mu[b][c] * nu[a][d] - mu[a][d] * nu[b][c]
                    for d in r
                ]
                for c in r
            ]
            for b in r
        ]
        for a in r
    ]


def wqc_tensor(p: Pipeline) -> Curvature:
    """The conformal curvature on H, assembled from R, T0 and S.

    W = R + g @ L0 + Sum_s [omega_s @ I_s L0 - (omega_s x D_s + D_s x omega_s) / 2
    + S/4 (omega_s @ omega_s + 4 omega_s x omega_s)] + S/4 g @ g, with @ the
    Kulkarni-Nomizu product, L0 = T0 / 2, omega_s = -I_s and
    D_s(X, Y) = T0(X, I_s Y) - T0(I_s X, Y).

    It is evaluated in integers: with T0 = T/q, I_s = J_s/q and S = sigma/q
    over one q, D_s = (T J_s - J_s^t T)/q^2 and R read off its integer table,
    4 q^3 (W - R) = g @ (2 q^2 T + sigma q^2 g) + Sum_s [J_s @ (2 T J_s + sigma J_s)
    + 2 (J_s x D_s + D_s x J_s) + 4 sigma J_s x J_s].  The result is that
    table over R's denominator times 4 q^3, indexed by horizontal position:
    W(e_{h_a}, e_{h_b}, e_{h_c}, e_{h_d}) = w[(a, b, c, d)] for a..d in 1..4.
    """
    riem, s_value = p.riem, p.s_value
    i_mats = p.frame.complex_structures
    h, r = [x - 1 for x in p.frame.horizontal], range(4)
    q = common_denominator([s_value, *(x for m in (p.t0, *i_mats) for row in m for x in row)])
    t, js = scaled(p.t0, q), [scaled(m, q) for m in i_mats]
    sigma, qq, den = s_value.numerator * (q // s_value.denominator), q * q, 4 * q**3
    delta = [[int(a == b) for b in r] for a in r]
    base = kulkarni_nomizu(delta, [[2 * qq * t[a][b] + sigma * qq * delta[a][b] for b in r] for a in r])
    terms = []
    for j in js:
        tj = matmul(t, j)
        dm = [[tj[a][b] - tj[b][a] for b in r] for a in r]  # J^t T = (T J)^t, T symmetric
        kn = kulkarni_nomizu(j, [[2 * tj[a][b] + sigma * j[a][b] for b in r] for a in r])
        terms.append((j, dm, kn))

    def entry(a: int, b: int, c: int, d: int) -> int:
        x = base[a][b][c][d]
        for j, dm, kn in terms:
            x += kn[a][b][c][d] + 2 * (j[a][b] * dm[c][d] + dm[a][b] * j[c][d])
            x += 4 * sigma * j[a][b] * j[c][d]
        return riem.table[h[a]][h[b]][h[c]][h[d]] * den + x * riem.den

    return Curvature(4, riem.den * den, [[[[entry(a, b, c, d) for d in r] for c in r] for b in r] for a in r])


def is_qc_conformally_flat(w: Curvature) -> bool:
    return not any(x for plane in w.table for block in plane for row in block for x in row)
