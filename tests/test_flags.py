import itertools
import random
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc import exterior, linalg
from qcalc.errors import InvalidFlag, ParametricNotSupported
from qcalc.exterior import Flag, Form, LieAlgebra, search_flag, verify_flag
from qcalc.parser import parse
from oracles import document, exhaustive_flag, identity, level_forms, verify_flag_per_covector, wedge_power

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's input generator; it never imports qcalc)

# g1 in a dense orthonormal coframe of height 3, as written by perfbench/gen.py's
# rotated_input(random.Random(3), "g1", 3, "g1_rot"): the characteristic
# polynomials of its adjoint maps have integer coefficients of up to 220 bits.
G1_ROTATED_H3 = """\
algebra g1_rot dim 7
d e1 = (4529520324/45284661475)e12 - (1304054136/9056932295)e13 - (5361117132/45284661475)e14 - (200628366/2682159605)e15 - (34087155/536431921)e16 - (10384812/2682159605)e17 + (27881600472/45284661475)e23 - (128746254/1811386459)e24 + (1099940778/2682159605)e25 - (137443392/536431921)e26 - (105679944/2682159605)e27 + (37633794396/45284661475)e34 + (586888488/2682159605)e35 + (148398750/536431921)e36 + (54788616/2682159605)e37 - (360156129/2682159605)e45 - (162128694/536431921)e46 - (69251508/2682159605)e47
d e2 = -(8456592132/45284661475)e12 - (676939686/9056932295)e13 + (959676786/45284661475)e14 - (2955593/233231270)e15 + (2933574/536431921)e16 + (2607006/2682159605)e17 - (23008079586/45284661475)e23 + (4580918424/9056932295)e24 - (19807122/2682159605)e25 - (181382601/2682159605)e26 - (17526708/2682159605)e27 + (6556401947/45284661475)e34 + (130373391/2682159605)e35 - (5550186/536431921)e36 - (7140708/2682159605)e37 - (125175054/2682159605)e45 - (442793/233231270)e46 + (3673494/2682159605)e47
d e3 = -(150275562/45284661475)e12 + (4522434048/9056932295)e13 - (22955220984/45284661475)e14 + (88262898/2682159605)e15 - (65156195/1072863842)e16 - (19284714/2682159605)e17 - (42737963136/45284661475)e23 + (1731845737/1811386459)e24 + (642313641/2682159605)e25 + (131439126/536431921)e26 + (44432532/2682159605)e27 + (13572548352/45284661475)e34 - (427249614/2682159605)e35 + (102379875/536431921)e36 + (65613852/2682159605)e37 + (1017894799/5364319210)e45 - (73162518/536431921)e46 - (53695326/2682159605)e47
d e4 = (22277338116/45284661475)e12 + (4501184748/9056932295)e13 - (15656398718/45284661475)e14 + (151784121/2682159605)e15 - (25139382/536431921)e16 - (17678268/2682159605)e17 + (35238920868/45284661475)e23 - (7165491132/9056932295)e24 + (373450536/2682159605)e25 + (899792118/2682159605)e26 + (77746824/2682159605)e27 - (11429345286/45284661475)e34 - (624982698/2682159605)e35 + (67214448/536431921)e36 + (54591624/2682159605)e37 + (647685102/2682159605)e45 - (160080999/2682159605)e46 - (37702332/2682159605)e47
d e5 = -(322078/190969)e12 - (133944/190969)e13 + (155568/190969)e14 + (437262/2200295)e16 + (43848/2200295)e17 + (155568/190969)e23 + (133944/190969)e24 - (816366/2200295)e26 - (81864/2200295)e27 - (322078/190969)e34 - (1516416/2200295)e36 - (152064/2200295)e37 + (1276963/2200295)e46 + (128052/2200295)e47 - (2154/130321)e56 - (216/130321)e57 - (72/130321)e67
d e6 = (197304/190969)e12 - (281902/190969)e13 + (165768/190969)e14 - (437262/2200295)e15 + (14616/2200295)e17 + (165768/190969)e23 + (281902/190969)e24 + (816366/2200295)e25 - (27288/2200295)e27 + (197304/190969)e34 + (1516416/2200295)e35 - (50688/2200295)e37 - (1276963/2200295)e45 + (42684/2200295)e47 + (6462/130321)e56 + (648/130321)e57 + (216/130321)e67
d e7 = (56688/190969)e12 + (220152/190969)e13 + (306914/190969)e14 - (43848/2200295)e15 - (14616/2200295)e16 + (306914/190969)e23 - (220152/190969)e24 + (81864/2200295)e25 + (27288/2200295)e26 + (56688/190969)e34 + (152064/2200295)e35 + (50688/2200295)e36 - (128052/2200295)e45 - (42684/2200295)e46 - (128881/260642)e56 - (6462/130321)e57 - (2154/130321)e67
qc horizontal 1 2 3 4 vertical 5 6 7 scale 2
omega1 = -(161039/190969)e12 - (66972/190969)e13 + (77784/190969)e14 + (77784/190969)e23 + (66972/190969)e24 - (161039/190969)e34
omega2 = (98652/190969)e12 - (140951/190969)e13 + (82884/190969)e14 + (82884/190969)e23 + (140951/190969)e24 + (98652/190969)e34
omega3 = (28344/190969)e12 + (110076/190969)e13 + (153457/190969)e14 + (153457/190969)e23 - (110076/190969)e24 + (28344/190969)e34
"""


def alg(name, mu=None):
    g = document(name).algebra
    if mu is not None:
        g = g.substitute(Fraction(mu))
    return g


def so3_r4() -> LieAlgebra:
    e = lambda i, j: Form.monomial(7, Fraction(1), (i, j))
    z = Form.zero(7, 2)
    return LieAlgebra("so3r4", 7, (e(2, 3), e(3, 1), e(1, 2), z, z, z, z), None)


def abelian() -> LieAlgebra:
    z = Form.zero(7, 2)
    return LieAlgebra("abelian", 7, tuple(z for _ in range(7)), None)


# ---------------------------------------------------------------------------
# verification


def test_heisenberg_catalog_flag_verifies():
    ok, reason = verify_flag(alg("heisenberg"), document("heisenberg").flag)
    assert ok, reason


@pytest.mark.parametrize("mu", ["-1", "-1/3"])
def test_family_catalog_flag_verifies_at_both_roots(mu):
    ok, reason = verify_flag(alg("prop31_family", mu), document("prop31_family").substitute(Fraction(mu)).flag)
    assert ok, reason
    with pytest.raises(ParametricNotSupported, match="flag has parametric covectors"):
        verify_flag(alg("prop31_family", mu), document("prop31_family").flag)


def test_broken_flag_rejected():
    # a nested full-rank chain led by e5 fails: d(e5) = e12+e34 is not in
    # the second exterior power of any early level
    g = alg("heisenberg")
    order = [5, 1, 2, 3, 4, 6, 7]

    def row(j):
        return tuple(Fraction(1) if i == j else Fraction(0) for i in range(1, 8))

    levels = tuple(tuple(row(j) for j in order[:i]) for i in range(1, 8))
    ok, reason = verify_flag(g, Flag(7, levels))
    assert not ok
    assert reason


def test_flag_violation_messages_are_exact():
    g = alg("heisenberg")

    def row(j):
        return tuple(Fraction(1) if i == j else Fraction(0) for i in range(1, 8))

    def levels(orders):
        return tuple(tuple(row(j) for j in order) for order in orders)

    # every level independent, but e2 in level 2 is missing from level 3
    chain = [[1], [1, 2], [1, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6], list(range(1, 8))]
    with pytest.raises(InvalidFlag) as err:
        verify_flag(g, Flag(7, levels(chain)))
    assert str(err.value) == "level 2 is not contained in level 3"
    # nested chain; d(e5) = e12 + e34 leaves Lambda^2 <e1, e2, e5>, the first
    # violation, and later levels break the condition again
    order = [1, 2, 5, 3, 4, 6, 7]
    ok, reason = verify_flag(g, Flag(7, levels([order[:i] for i in range(1, 8)])))
    assert not ok
    assert reason == "d of covector 3 in level 3 leaves Lambda^2 V^3"


@cache
def flag_case(name: str, mu: str | None, h: int | None) -> tuple[LieAlgebra, tuple]:
    """A catalog algebra (h None) or its gen.py rotation of height h, with two
    covector bases: the standard one, and one adapted to its searched flag
    (row i + 1 is the first row of level i + 1 outside level i)."""
    if h is None:
        g = alg(name, mu)
    else:
        g = parse(gen.rotated_input(random.Random(h), name, h, f"{name}_rot")[0]).algebra
    flag = search_flag(g)
    adapted = [flag.levels[0][0]]
    for level in flag.levels[1:]:
        adapted.append(next(r for r in level if linalg.rank(adapted + [r]) > len(adapted)))
    return g, (tuple(map(tuple, identity(g.dim))), tuple(adapted))


@st.composite
def basis_order_flags(draw):
    """(g, flag): level i holds the first i covectors of an order of a basis,
    either a few adjacent swaps away from the basis order or any order, and
    now and then an off-chain level of i covectors, repeats allowed, or a
    level with one row cut short."""
    g, bases = flag_case(*draw(st.sampled_from(
        [("heisenberg", None, None), ("g1", None, None), ("g2", None, None),
         ("prop31_family", "-1/3", None), ("g1", None, 1), ("g2", None, 2)]
    )))
    basis, n = draw(st.sampled_from(bases)), g.dim
    if draw(st.booleans()):
        order = list(draw(st.permutations(range(n))))
    else:
        order = list(range(n))
        for j in draw(st.lists(st.integers(0, n - 2), max_size=3)):
            order[j], order[j + 1] = order[j + 1], order[j]
    levels = []
    for i in range(1, n + 1):
        off = draw(st.integers(0, 9)) == 0
        picks = draw(st.lists(st.integers(0, n - 1), min_size=i, max_size=i)) if off else order[:i]
        levels.append(tuple(basis[k] for k in picks))
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, i))
        levels[i] = levels[i][:j] + (levels[i][j][:-1],) + levels[i][j + 1:]
    return g, Flag(n, tuple(levels))


@settings(max_examples=60, deadline=None)
@given(basis_order_flags())
def test_level_span_check_matches_the_per_covector_one(case):
    g, flag = case

    def outcome(check):
        try:
            return check(g, flag)
        except InvalidFlag as err:
            return str(err)

    assert outcome(verify_flag) == outcome(verify_flag_per_covector)


def test_malformed_flag_raises():
    g = alg("heisenberg")
    flag = document("heisenberg").flag
    with pytest.raises(InvalidFlag):
        verify_flag(g, Flag(7, flag.levels[:3]))
    # duplicate rows give a rank defect
    row = (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    levels = (flag.levels[0], (row, row)) + flag.levels[2:]
    with pytest.raises(InvalidFlag):
        verify_flag(g, Flag(7, levels))
    levels = ((row[:6],),) + flag.levels[1:]
    with pytest.raises(InvalidFlag, match="level 1 must hold 1 covectors of length 7"):
        verify_flag(g, Flag(7, levels))
    # level 1's containment check ranks level 2, so every level's shape is checked before it
    levels = (flag.levels[0], (flag.levels[1][0], row[:6])) + flag.levels[2:]
    with pytest.raises(InvalidFlag, match="level 2 must hold 2 covectors of length 7"):
        verify_flag(g, Flag(7, levels))


# ---------------------------------------------------------------------------
# search


def test_search_abelian_gives_coordinate_flag():
    flag = search_flag(abelian())
    assert flag is not None
    ok, reason = verify_flag(abelian(), flag)
    assert ok, reason


def test_search_heisenberg_finds_flag():
    g = alg("heisenberg")
    flag = search_flag(g)
    assert flag is not None
    assert flag == exhaustive_flag(g)
    ok, reason = verify_flag(g, flag)
    assert ok, reason


@pytest.mark.parametrize("name,mu", [("g1", None), ("g2", None), ("prop31_family", "-1"), ("prop31_family", "-1/3")])
def test_search_solvable_catalog(name, mu):
    g = alg(name, mu)
    flag = search_flag(g)
    assert flag is not None
    assert flag == exhaustive_flag(g)
    ok, reason = verify_flag(g, flag)
    assert ok, reason


def test_search_dense_height3_finds_flag():
    g = parse(G1_ROTATED_H3).algebra
    flag = search_flag(g)
    assert flag is not None
    assert flag == exhaustive_flag(g)
    ok, reason = verify_flag(g, flag)
    assert ok, reason


def test_search_computes_one_polynomial_per_map(monkeypatch):
    # each quotient map's characteristic polynomial is deflated from its
    # parent's, so every adjoint map of g costs at most one char_poly
    g = parse(G1_ROTATED_H3).algebra
    calls = []
    char_poly = linalg.char_poly
    monkeypatch.setattr(linalg, "char_poly", lambda m: calls.append(m) or char_poly(m))
    assert search_flag(g) is not None
    assert len(calls) <= g.dim


def test_search_semisimple_factor_blocks_flag():
    assert search_flag(so3_r4()) is None


def test_search_is_deterministic():
    a = search_flag(alg("heisenberg"))
    b = search_flag(alg("heisenberg"))
    assert a == b


# ---------------------------------------------------------------------------
# the greedy search against the exhaustive one


def flagless(weights: int) -> LieAlgebra:
    """R x| R^(weights + 2): [e1, ek] = (k - 1) ek on the next `weights` basis
    elements and a rotation on the last two, which have no rational eigenvector,
    so no chain of ideals reaches past the weights."""
    n = weights + 3
    text = f"algebra flagless{n} dim {n}\nd e1 = 0\n"
    text += "".join(f"d e{k} = -{k - 1} e1{k}\n" for k in range(2, n - 1))
    text += f"d e{n - 1} = e1{n}\nd e{n} = -e1{n - 1}\n"
    return parse(text).algebra


def test_flagless_dimension_9_returns_none_quickly():
    # the exhaustive search tries every order of the six weights before it gives up
    g = flagless(6)
    start = time.perf_counter()
    assert search_flag(g) is None
    assert time.perf_counter() - start < 1


def test_flagless_dimension_7_returns_none():
    g = flagless(4)
    assert search_flag(g) is None
    assert exhaustive_flag(g) is None


@st.composite
def commuting_semidirect_products(draw):
    """R^k x| R^m, k in {1, 2} and k + m <= 7, in a shuffled basis: [x_s, v] = M_s v
    with M_s = c0 I + c1 M for one rational M with entries a/b, a in -2..2 and
    b in 1..3, upper triangular half the time, so that both outcomes of the
    search occur, and so do E > 1, eigenvectors with denominators and
    repeated eigenvalues."""
    k = draw(st.integers(1, 2))
    m = draw(st.integers(1, 7 - k))
    n = k + m
    pos = draw(st.permutations(range(1, n + 1)))  # pos[i]: where logical index i sits
    upper = draw(st.booleans())
    entry = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    mat = [[draw(entry) if c >= r or not upper else 0 for c in range(m)] for r in range(m)]
    terms = [{} for _ in range(n)]
    for s in range(k):
        c0, c1 = draw(entry), draw(entry)
        for r in range(m):
            for c in range(m):
                # [x_s, v_c] has v_r-component x, so d e^{v_r} carries -x e^{x_s v_c}
                if x := c1 * mat[r][c] + c0 * (r == c):
                    a, b = pos[s], pos[k + c]
                    key, sign = ((a, b), 1) if a < b else ((b, a), -1)
                    terms[pos[k + r] - 1][key] = Fraction(-sign * x)
    return LieAlgebra("semidirect", n, tuple(Form.make(n, 2, t) for t in terms), None)


common_eigenvector = exterior._common_eigenvector


def carried_polynomials_checked(table, polys):
    """`_common_eigenvector`, after checking every polynomial the search carries
    down against the characteristic polynomial of its quotient map."""
    n = len(table)
    for i, cp in enumerate(polys):
        if cp is not None:
            assert cp == linalg.char_poly([[table[i][j][r] for j in range(n)] for r in range(n)])[1]
    return common_eigenvector(table, polys)


@settings(max_examples=200, deadline=None)
@given(commuting_semidirect_products())
def test_greedy_search_matches_the_exhaustive_one(g):
    assert g.is_valid
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exterior, "_common_eigenvector", carried_polynomials_checked)
        assert search_flag(g) == exhaustive_flag(g)


# ---------------------------------------------------------------------------
# degeneracy consequences of an ascending flag


@pytest.mark.parametrize(
    "name,mu",
    [("heisenberg", None), ("prop31_family", "-1"), ("prop31_family", "-1/3")],
)
def test_flag_covector_degeneracy(name, mu):
    # every covector in an odd level V^{2k-1} satisfies (d a)^k = 0, and
    # every covector in an even level V^{2k} satisfies a ^ (d a)^k = 0
    doc = document(name) if mu is None else document(name).substitute(Fraction(mu))
    g, flag = doc.algebra, doc.flag
    ok, reason = verify_flag(g, flag)
    assert ok, reason
    for i in range(1, 8):
        forms = level_forms(flag, i)
        candidates = list(forms)
        for a, b in itertools.combinations(forms, 2):
            candidates.append(a + b)
            candidates.append(a - 2 * b)
        k = (i + 1) // 2
        for a in candidates:
            da = g.d(a)
            if da.is_zero:
                continue
            if i % 2 == 1:
                assert wedge_power(da, k).is_zero
            else:
                assert a.wedge(wedge_power(da, k)).is_zero
