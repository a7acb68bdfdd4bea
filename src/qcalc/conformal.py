"""Kulkarni-Nomizu products and the qc conformal curvature tensor.

Everything here lives on the four horizontal directions.  Tensors of rank 4
are nested 4x4x4x4 lists indexed by horizontal position; rank-2 inputs are
4x4 matrices.
"""

from __future__ import annotations

from fractions import Fraction

from .qc import Matrix4, QCFrame, matmul
from .scalars import Scalar, is_zero

Tensor4H = list  # [a][b][c][d] -> Scalar


def _zero4() -> Tensor4H:
    return [
        [[[Fraction(0) for _ in range(4)] for _ in range(4)] for _ in range(4)]
        for _ in range(4)
    ]


def kulkarni_nomizu(mu: Matrix4, nu: Matrix4) -> Tensor4H:
    """(mu @ nu)(X,Y,Z,V) = mu(X,Z)nu(Y,V) + mu(Y,V)nu(X,Z) - mu(Y,Z)nu(X,V) - mu(X,V)nu(Y,Z)."""
    out = _zero4()
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    out[a][b][c][d] = (
                        mu[a][c] * nu[b][d]
                        + mu[b][d] * nu[a][c]
                        - mu[b][c] * nu[a][d]
                        - mu[a][d] * nu[b][c]
                    )
    return out


def wqc_tensor(
    riem: dict[tuple[int, int, int, int], Scalar],
    t0: Matrix4,
    s_value: Fraction,
    frame: QCFrame,
) -> Tensor4H:
    """The conformal curvature on H, assembled from R, T0 and S.

    W = R + g @ L0 + Sum_s [omega_s @ I_s L0 - (omega_s x D_s + D_s x omega_s) / 2
    + S/4 (omega_s @ omega_s + 4 omega_s x omega_s)] + S/4 g @ g, with @ the
    Kulkarni-Nomizu product, L0 = T0 / 2, omega_s = -I_s and
    D_s(X, Y) = T0(X, I_s Y) - T0(I_s X, Y).
    """
    i_mats = frame.complex_structures
    h = frame.horizontal
    gm = [[Fraction(1 if a == b else 0) for b in range(4)] for a in range(4)]
    l0 = [[t0[a][b] / 2 for b in range(4)] for a in range(4)]
    om_mats = [[[-x for x in row] for row in m] for m in i_mats]
    # (I_s L0)(X, Y) = -L0(X, I_s Y), i.e. the matrix -L0 . I_s
    isl0 = [[[-x for x in row] for row in matmul(l0, m)] for m in i_mats]
    d_mats = []
    for m in i_mats:
        t0_i = matmul(t0, m)
        it_t0 = matmul([list(col) for col in zip(*m)], t0)
        d_mats.append([[t0_i[a][b] - it_t0[a][b] for b in range(4)] for a in range(4)])

    w = _zero4()
    gg = kulkarni_nomizu(gm, gm)
    g_l0 = kulkarni_nomizu(gm, l0)
    om_knp = [kulkarni_nomizu(om_mats[s], isl0[s]) for s in range(3)]
    omom = [kulkarni_nomizu(om_mats[s], om_mats[s]) for s in range(3)]
    quarter_s = s_value / 4
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    val: Scalar = riem[(h[a], h[b], h[c], h[d])]
                    val = val + g_l0[a][b][c][d]
                    for s in range(3):
                        om, dm = om_mats[s], d_mats[s]
                        val = val + om_knp[s][a][b][c][d]
                        cross = om[a][b] * dm[c][d] + om[c][d] * dm[a][b]
                        val = val - cross / 2
                        val = val + quarter_s * (
                            omom[s][a][b][c][d] + 4 * om[a][b] * om[c][d]
                        )
                    val = val + quarter_s * gg[a][b][c][d]
                    w[a][b][c][d] = val
    return w


def is_qc_conformally_flat(w: Tensor4H) -> bool:
    return all(
        is_zero(w[a][b][c][d])
        for a in range(4)
        for b in range(4)
        for c in range(4)
        for d in range(4)
    )
