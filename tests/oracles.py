"""Reference implementations that only the tests use.

The package computes the scalar curvature from affine pairs of rational
matrices and the Betti numbers from the weight-zero part of the complex.
These are the direct routes it is checked against: solving a*S + b = 0 for
a symbol S (with its two errors), the Ricci forms of symbolic connection
forms through `LieAlgebra.d` and `Form.wedge` over `Poly`, and the ranks of
the whole Chevalley-Eilenberg complex.
"""

from fractions import Fraction

from qcalc import linalg
from qcalc.errors import IndeterminateMismatch, QcalcError
from qcalc.exterior import Form, differential_matrix, monomials
from qcalc.qc import CYCLES, restrict_h
from qcalc.scalars import ZERO, Scalar, variable

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


def symbolic(pair):
    """A0 + S A1 for an affine pair of forms or of matrices, over Poly in S."""
    a0, a1 = pair
    if isinstance(a0, Form):
        return a0 + S * a1
    return [[x + S * y for x, y in zip(u, w)] for u, w in zip(a0, a1)]


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


def full_complex_betti(g) -> list[int]:
    """dim H^k from the ranks of the whole complex, E * d_j on every monomial."""
    ranks = [0] + [linalg.rank(differential_matrix(g, j)) for j in range(g.dim + 1)]
    return [len(monomials(g.dim, k)) - ranks[k + 1] - ranks[k] for k in range(g.dim + 1)]
