import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from qcalc.biquard import Curvature, run_pipeline
from qcalc.conformal import is_qc_conformally_flat, kulkarni_nomizu, wqc_tensor
from qcalc.family import specialize
from qcalc.parser import parse
from qcalc.qc import standard_omegas
from oracles import document, evaluate, hvec

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)

# g2 in a dense orthonormal coframe, as written by perfbench/gen.py's
# rotated_input(random.Random(3), "g2", 1, "g2_rot"): 121 nonzero structure
# constants and dense I_r, where every catalog frame has signed-permutation I_r.
G2_ROTATED = """\
algebra g2_rot dim 7
d e1 = (35/324)e12 + (38/81)e13 + (103/324)e14 - (65/972)e15 - (8/243)e16 - (1/243)e17 - (85/324)e23 + (31/162)e24 + (1/108)e26 - (2/27)e27 + (1/324)e34 - (91/972)e35 - (13/243)e36 + (13/243)e37 - (13/243)e45 - (13/972)e46 - (26/243)e47
d e2 = (233/324)e12 - (41/162)e13 + (175/324)e14 + (1/108)e16 - (2/27)e17 - (85/324)e23 - (16/81)e24 + (65/972)e25 + (8/243)e26 + (1/243)e27 - (125/324)e34 - (13/243)e35 - (13/972)e36 - (26/243)e37 + (91/972)e45 + (13/243)e46 - (13/243)e47
d e3 = (13/108)e12 - (8/27)e13 - (7/108)e14 + (35/972)e15 + (5/243)e16 - (5/243)e17 + (13/108)e23 - (7/54)e24 + (5/243)e25 + (5/972)e26 + (10/243)e27 - (25/108)e34 + (11/324)e35 + (2/81)e36 - (5/81)e37 + (14/243)e45 + (23/972)e46 + (10/243)e47
d e4 = -(67/324)e12 - (29/162)e13 - (29/324)e14 + (5/243)e15 + (5/972)e16 + (10/243)e17 - (25/324)e23 - (10/81)e24 - (35/972)e25 - (5/243)e26 + (5/243)e27 + (247/324)e34 + (14/243)e35 + (23/972)e36 + (10/243)e37 - (11/324)e45 - (2/81)e46 + (5/81)e47
d e5 = (8/9)e12 + (14/9)e13 + (8/9)e14 - (1/54)e16 + (4/27)e17 + (8/9)e23 - (14/9)e24 - (1/18)e26 + (4/9)e27 + (8/9)e34 + (1/54)e36 - (4/27)e37 - (5/54)e46 + (20/27)e47 + (2/243)e56 - (16/243)e57 - (8/243)e67
d e6 = -(16/9)e12 + (8/9)e13 + (2/9)e14 + (1/54)e15 + (2/27)e17 + (2/9)e23 - (8/9)e24 + (1/18)e25 + (2/9)e27 - (16/9)e34 - (1/54)e35 - (2/27)e37 + (5/54)e45 + (10/27)e47 - (4/243)e56 + (32/243)e57 + (16/243)e67
d e7 = -(2/9)e12 - (8/9)e13 + (16/9)e14 - (4/27)e15 - (2/27)e16 + (16/9)e23 + (8/9)e24 - (4/9)e25 - (2/9)e26 - (2/9)e34 + (4/27)e35 + (2/27)e36 - (20/27)e45 - (10/27)e46 - (1/486)e56 + (4/243)e57 + (2/243)e67
qc horizontal 1 2 3 4 vertical 5 6 7 scale 2
omega1 = (4/9)e12 + (7/9)e13 + (4/9)e14 + (4/9)e23 - (7/9)e24 + (4/9)e34
omega2 = -(8/9)e12 + (4/9)e13 + (1/9)e14 + (1/9)e23 - (4/9)e24 - (8/9)e34
omega3 = -(1/9)e12 - (4/9)e13 + (8/9)e14 + (8/9)e23 + (4/9)e24 - (1/9)e34
"""

PIPELINE_CASES = (
    ("g1", None),
    ("g2", None),
    ("heisenberg", None),
    ("prop31_family", "-1"),
    ("prop31_family", "-1/3"),
    ("g2_rot", None),
)


def symmetric_matrices():
    return st.lists(rationals, min_size=10, max_size=10).map(_unpack_symmetric)


def _unpack_symmetric(vals):
    m = [[Fraction(0)] * 4 for _ in range(4)]
    it = iter(vals)
    for a in range(4):
        for b in range(a, 4):
            v = next(it)
            m[a][b] = v
            m[b][a] = v
    return m


def pipeline(name, mu=None):
    doc = parse(G2_ROTATED) if name == "g2_rot" else document(name)
    g = doc.algebra
    if mu is not None:
        g = specialize(g, Fraction(mu))
    return run_pipeline(g, doc.frame)


@lru_cache(maxsize=None)
def wqc(name, mu=None):
    p = pipeline(name, mu)
    return wqc_tensor(p), p


# ---------------------------------------------------------------------------
# Kulkarni-Nomizu product


@given(symmetric_matrices(), symmetric_matrices())
def test_kn_pointwise_formula(mu, nu):
    out = kulkarni_nomizu(mu, nu)
    for a, b, c, d in itertools.product(range(4), repeat=4):
        expected = (
            mu[a][c] * nu[b][d]
            + mu[b][d] * nu[a][c]
            - mu[b][c] * nu[a][d]
            - mu[a][d] * nu[b][c]
        )
        assert out[a][b][c][d] == expected


@given(symmetric_matrices(), symmetric_matrices())
def test_kn_symmetric_inputs_give_curvature_symmetries(mu, nu):
    out = kulkarni_nomizu(mu, nu)
    for a, b, c, d in itertools.product(range(4), repeat=4):
        assert out[a][b][c][d] == -out[b][a][c][d]
        assert out[a][b][c][d] == -out[a][b][d][c]
        assert out[a][b][c][d] == out[c][d][a][b]
        bianchi = out[a][b][c][d] + out[b][c][a][d] + out[c][a][b][d]
        assert bianchi == 0


def test_kn_metric_with_itself():
    gm = [[Fraction(1 if a == b else 0) for b in range(4)] for a in range(4)]
    gg = kulkarni_nomizu(gm, gm)
    assert gg[0][1][0][1] == 2
    assert gg[0][1][1][0] == -2
    assert gg[0][1][2][3] == 0


def test_local_quaternionic_combination():
    # sum over the three local almost complex 2-forms of
    # (omega (kn) omega + 4 omega x omega), sampled on (e1, e2, e1, e2)
    omegas = standard_omegas(7, (1, 2, 3, 4))
    e = [[Fraction(1 if i == j + 1 else 0) for i in range(1, 8)] for j in range(4)]

    def om_val(om, a, b):
        from qcalc.exterior import Vec

        return evaluate(om, [Vec(tuple(e[a])), Vec(tuple(e[b]))])

    total = Fraction(0)
    for om in omegas:
        mat = [[om_val(om, a, b) for b in range(4)] for a in range(4)]
        knp = kulkarni_nomizu(mat, mat)
        total += knp[0][1][0][1] + 4 * mat[0][1] * mat[0][1]
    assert total == 6


# ---------------------------------------------------------------------------
# the conformal curvature tensor


def test_wqc_g1_samples():
    w, _ = wqc("g1")
    assert w[(1, 2, 1, 2)] == Fraction(-1, 2)
    assert w[(1, 3, 1, 3)] == Fraction(-1, 2)
    assert w[(1, 4, 1, 4)] == Fraction(1)
    assert w[(3, 4, 3, 4)] == Fraction(-1, 2)
    assert not is_qc_conformally_flat(w)


def test_wqc_g2_samples():
    w, p = wqc("g2")
    assert w[(1, 4, 1, 4)] == Fraction(-5, 9)
    # the decomposition pins this slot to R + 2S, with opposite sign from
    # the (1,4,1,4) pattern
    assert w[(1, 2, 1, 2)] == p.riem[(1, 2, 1, 2)] + 2 * p.s_value
    assert w[(1, 2, 1, 2)] == Fraction(5, 18)
    assert not is_qc_conformally_flat(w)


def test_wqc_heisenberg_vanishes_everywhere():
    w, _ = wqc("heisenberg")
    for idx in itertools.product(range(1, 5), repeat=4):
        assert w[idx] == 0
    assert is_qc_conformally_flat(w)


@pytest.mark.parametrize("name", ["g1", "g2"])
def test_wqc_pair_antisymmetries(name):
    w, _ = wqc(name)
    for a, b, c, d in itertools.product(range(1, 5), repeat=4):
        assert w[(a, b, c, d)] == -w[(b, a, c, d)]
        assert w[(a, b, c, d)] == -w[(a, b, d, c)]


def test_wqc_dense_frame():
    w, p = wqc("g2_rot")
    assert p.s_value == Fraction(-1, 6)
    assert w[(1, 2, 1, 2)] == Fraction(55, 486)
    assert not is_qc_conformally_flat(w)


def test_wqc_decomposition_slot_identity_g1():
    # on (e1, e2, e1, e2) every torsion term drops out for these algebras
    # and the value reduces to R + 2S
    w, p = wqc("g1")
    assert w[(1, 2, 1, 2)] == p.riem[(1, 2, 1, 2)] + 2 * p.s_value


# ---------------------------------------------------------------------------
# identities of W^qc (Ivanov-Vassilev): algebraic curvature symmetries and
# complete trace-freeness against g and each omega_s


@pytest.mark.parametrize("name,mu", PIPELINE_CASES)
def test_wqc_pair_symmetry(name, mu):
    w, _ = wqc(name, mu)
    for a, b, c, d in itertools.product(range(1, 5), repeat=4):
        assert w[(a, b, c, d)] == w[(c, d, a, b)]


@pytest.mark.parametrize("name,mu", PIPELINE_CASES)
def test_wqc_first_bianchi(name, mu):
    w, _ = wqc(name, mu)
    for a, b, c, d in itertools.product(range(1, 5), repeat=4):
        assert w[(a, b, c, d)] + w[(b, c, a, d)] + w[(c, a, b, d)] == 0


@pytest.mark.parametrize("name,mu", PIPELINE_CASES)
def test_wqc_metric_trace_vanishes(name, mu):
    w, _ = wqc(name, mu)
    for b, d in itertools.product(range(1, 5), repeat=2):
        assert sum(w[(a, b, a, d)] for a in range(1, 5)) == 0


@pytest.mark.parametrize("name,mu", PIPELINE_CASES)
def test_wqc_omega_traces_vanish(name, mu):
    w, p = wqc(name, mu)
    for om in p.frame.omegas:
        for c, d in itertools.product(range(1, 5), repeat=2):
            total = sum(
                evaluate(om, [hvec(p.frame, a - 1), hvec(p.frame, b - 1)]) * w[(a, b, c, d)]
                for a, b in itertools.product(range(1, 5), repeat=2)
            )
            assert total == 0


# ---------------------------------------------------------------------------
# the integer evaluation of W^qc against its docstring formula in Fractions


def reference_wqc(p):
    """W = R + g @ L0 + Sum_s [omega_s @ I_s L0 - (omega_s x D_s + D_s x omega_s) / 2
    + S/4 (omega_s @ omega_s + 4 omega_s x omega_s)] + S/4 g @ g, entry by entry."""

    def kn(mu, nu, a, b, c, d):
        return mu[a][c] * nu[b][d] + mu[b][d] * nu[a][c] - mu[b][c] * nu[a][d] - mu[a][d] * nu[b][c]

    r4 = range(4)
    s = p.s_value
    gm = [[Fraction(int(a == b)) for b in r4] for a in r4]
    l0 = [[p.t0[a][b] / 2 for b in r4] for a in r4]
    per_s = []
    for m in p.frame.complex_structures:
        om = [[-m[a][b] for b in r4] for a in r4]
        # (I_s L0)(X, Y) = -L0(X, I_s Y); D_s(X, Y) = T0(X, I_s Y) - T0(I_s X, Y)
        il0 = [[-sum(l0[a][x] * m[x][b] for x in r4) for b in r4] for a in r4]
        dm = [[sum(p.t0[a][x] * m[x][b] - m[x][a] * p.t0[x][b] for x in r4) for b in r4] for a in r4]
        per_s.append((om, il0, dm))
    h = p.frame.horizontal
    out = {}
    for a, b, c, d in itertools.product(r4, repeat=4):
        val = p.riem[(h[a], h[b], h[c], h[d])] + kn(gm, l0, a, b, c, d) + s / 4 * kn(gm, gm, a, b, c, d)
        for om, il0, dm in per_s:
            val += kn(om, il0, a, b, c, d)
            val -= (om[a][b] * dm[c][d] + dm[a][b] * om[c][d]) / 2
            val += s / 4 * (kn(om, om, a, b, c, d) + 4 * om[a][b] * om[c][d])
        out[(a, b, c, d)] = val
    return out


@pytest.mark.parametrize("name,mu", [("g2_rot", None), ("prop31_family", "-1/3"), ("g1", None)])
def test_wqc_matches_fraction_formula(name, mu):
    w, p = wqc(name, mu)
    ref = reference_wqc(p)
    for a, b, c, d in itertools.product(range(4), repeat=4):
        assert isinstance(w[(a + 1, b + 1, c + 1, d + 1)], Fraction)
        assert w[(a + 1, b + 1, c + 1, d + 1)] == ref[(a, b, c, d)], (a, b, c, d)


@pytest.mark.parametrize("name,mu", PIPELINE_CASES)
def test_wqc_is_an_integer_tensor(name, mu):
    w, _ = wqc(name, mu)
    entries = [x for plane in w.table for block in plane for row in block for x in row]
    assert len(entries) == 256
    assert all(type(x) is int for x in entries)
    tripled = [[[[3 * x for x in row] for row in block] for block in plane] for plane in w.table]
    assert w == Curvature(4, 3 * w.den, tripled)
    if name == "heisenberg":
        assert not any(entries)
