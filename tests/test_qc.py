import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from qcalc.catalog import names, source
from qcalc.errors import NotQuaternionic, ParametricNotSupported
from qcalc.exterior import Form, LieAlgebra, Vec
from qcalc.parser import parse
from qcalc.qc import (
    QCFrame,
    adapt,
    check_bi1,
    check_compatibility,
    d_fundamental_form,
    derive_complex_structures,
    fundamental_form,
    vertical_integrable,
)
from qcalc.scalars import replace, variable
from oracles import (
    adapted_shape,
    apply_endo,
    bi1_violations,
    compatible,
    covector,
    document,
    evaluate,
    horizontal_matrix,
    hvec,
    interior,
    restrict_h,
    standard_frame,
    standard_omegas,
)
from test_cli import HEIS_SKEW2, PARAM_IN_OMEGA
from test_conformal import G2_ROTATED
from test_relabel import NOT_BI1, PERMS, relabel


def load(name):
    doc = document(name)
    return doc.algebra, doc.frame


def mono(*idx, dim=7, c=1):
    return Form.monomial(dim, Fraction(c), idx)


def zero2(dim=7):
    return Form.zero(dim, 2)


def abelian_with(diffs: dict) -> LieAlgebra:
    table = [diffs.get(k, zero2()) for k in range(1, 8)]
    return LieAlgebra("variant", 7, tuple(table), None)


# ---------------------------------------------------------------------------
# frames and complex structures


def test_qc_frame_is_an_index_split():
    # eta_r = e^{v_r} and xi_r = e_{v_r} are read off the vertical indices
    assert list(QCFrame._fields) == [
        "dim", "horizontal", "vertical", "omegas", "scale",
    ]


def test_standard_frame_shape():
    frame = standard_frame()
    assert frame.horizontal == (1, 2, 3, 4)
    assert frame.vertical == (5, 6, 7)
    assert frame.scale == 2
    assert frame.omegas[0] == mono(1, 2) + mono(3, 4)
    assert frame.omegas[1] == mono(1, 3) + mono(4, 2)
    assert frame.omegas[2] == mono(1, 4) + mono(2, 3)


def test_complex_structures_match_quaternion_action():
    frame = standard_frame()
    i1, i2, i3 = derive_complex_structures(frame)
    # columns give the image of each horizontal basis vector
    def image(m, b):
        return [m[a][b] for a in range(4)]

    assert image(i1, 0) == [0, 1, 0, 0]  # e1 -> e2
    assert image(i1, 1) == [-1, 0, 0, 0]  # e2 -> -e1
    assert image(i1, 2) == [0, 0, 0, 1]  # e3 -> e4
    assert image(i1, 3) == [0, 0, -1, 0]  # e4 -> -e3
    assert image(i2, 0) == [0, 0, 1, 0]  # e1 -> e3
    assert image(i2, 3) == [0, 1, 0, 0]  # e4 -> e2
    assert image(i3, 0) == [0, 0, 0, 1]  # e1 -> e4
    assert image(i3, 1) == [0, 0, 1, 0]  # e2 -> e3


def test_complex_structures_square_to_minus_one():
    frame = standard_frame()
    for m in derive_complex_structures(frame):
        sq = [[sum(m[a][c] * m[c][b] for c in range(4)) for b in range(4)] for a in range(4)]
        for a in range(4):
            for b in range(4):
                assert sq[a][b] == (-1 if a == b else 0)


def test_rotated_omegas_still_quaternionic():
    # rotate the first two fundamental forms by the rational rotation (3/5, 4/5)
    c, s = Fraction(3, 5), Fraction(4, 5)
    o1 = mono(1, 2) + mono(3, 4)
    o2 = mono(1, 3) + mono(4, 2)
    o3 = mono(1, 4) + mono(2, 3)
    rotated = (c * o1 + s * o2, -s * o1 + c * o2, o3)
    frame = standard_frame(omegas=rotated)
    i1, i2, i3 = derive_complex_structures(frame)
    prod = [[sum(i1[a][k] * i2[k][b] for k in range(4)) for b in range(4)] for a in range(4)]
    assert prod == i3


def test_degenerate_omegas_rejected():
    bad = (mono(1, 2), mono(1, 3), mono(1, 4))
    with pytest.raises(NotQuaternionic):
        derive_complex_structures(standard_frame(omegas=bad))


def _omega_cases():
    o1, o2, o3 = standard_omegas(7, (1, 2, 3, 4))
    c, s = Fraction(3, 5), Fraction(4, 5)
    mu = variable("mu")
    return {
        "heis_skew2": (parse(HEIS_SKEW2).frame.omegas, "I_1^2 != -id"),
        "half_I2": ((o1, Fraction(1, 2) * o2, o3), "I_2^2 != -id"),
        "minus_I3": ((o1, o2, -1 * o3), "I_1 I_2 != I_3"),
        "rotated_minus_I3": ((c * o1 + s * o2, -s * o1 + c * o2, -1 * o3), "I_1 I_2 != I_3"),
        "swapped": ((o2, o1, o3), "I_1 I_2 != I_3"),
        "parametric_I2": ((o1, mu * o2, o3), "I_2^2 != -id"),
        "doubled_I1_before_parametric_I2": ((2 * o1, mu * o2, o3), "I_1^2 != -id"),
        "parametric_off_H": ((o1 + mu * mono(1, 5), o2, o3), None),
    }


OMEGA_CASES = _omega_cases()


@pytest.mark.parametrize("case", list(OMEGA_CASES))
def test_complex_structures_name_the_identity_that_fails(case):
    omegas, message = OMEGA_CASES[case]
    frame = standard_frame(omegas=omegas)
    assert fraction_verdict(frame) == message
    if message is None:
        assert derive_complex_structures(frame) == derive_complex_structures(standard_frame())
    else:
        with pytest.raises(NotQuaternionic, match=f"^{re.escape(message)}$"):
            derive_complex_structures(frame)


def fraction_verdict(frame):
    """The first of I_r^2 = -id (r = 1, 2, 3) and I_1 I_2 = I_3 that fails, from
    the I_r by determinant expansion and products summed as Fractions or Polys."""
    mats = evaluated_structures(frame)

    def product(x, y):
        return [[sum(x[a][k] * y[k][b] for k in range(4)) for b in range(4)] for a in range(4)]

    for r, m in enumerate(mats):
        if product(m, m) != [[-1 if a == b else 0 for b in range(4)] for a in range(4)]:
            return f"I_{r + 1}^2 != -id"
    if product(mats[0], mats[1]) != mats[2]:
        return "I_1 I_2 != I_3"
    return None


def evaluated_structures(frame):
    """The I_r matrices from omega_r(e_b, e_a), by determinant expansion."""
    return tuple(
        [[evaluate(om, [hvec(frame, b), hvec(frame, a)]) for b in range(4)] for a in range(4)]
        for om in frame.omegas
    )


@pytest.mark.parametrize("case", ["standard", "relabelled", "rotated_omegas", "g2_rot"])
def test_horizontal_matrix_and_structures_match_evaluate(case):
    if case == "g2_rot":
        frame = parse(G2_ROTATED).frame
    elif case == "relabelled":
        # neither block in increasing order
        frame = standard_frame(horizontal=(7, 3, 1, 5), vertical=(6, 2, 4))
    elif case == "rotated_omegas":
        c, s = Fraction(3, 5), Fraction(4, 5)
        o1, o2, o3 = standard_omegas(7, (1, 2, 3, 4))
        frame = standard_frame(omegas=(c * o1 + s * o2, -s * o1 + c * o2, o3))
    else:
        frame = standard_frame()
    for om in frame.omegas:
        m = horizontal_matrix(om, frame)
        for a in range(4):
            for b in range(4):
                assert m[a][b] == evaluate(om, [hvec(frame, a), hvec(frame, b)])
    mats = derive_complex_structures(frame)
    assert mats == evaluated_structures(frame)
    for m in mats:
        for a in range(4):
            for b in range(4):
                assert m[a][b] == -m[b][a]
                assert sum(m[c][a] * m[c][b] for c in range(4)) == (1 if a == b else 0)


def test_apply_endo():
    frame = standard_frame()
    i1, _, _ = derive_complex_structures(frame)
    assert apply_endo(i1, [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]) == [
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(0),
    ]


# ---------------------------------------------------------------------------
# compatibility and restriction


def test_restrict_h_drops_vertical_terms():
    frame = standard_frame()
    f = mono(1, 2) + 3 * mono(1, 5) + mono(5, 6)
    assert restrict_h(f, frame) == mono(1, 2)


@pytest.mark.parametrize("name", ["g1", "g2", "heisenberg", "prop31_family"])
def test_catalog_compatibility(name):
    g, frame = load(name)
    if g.parametric:
        g = g.substitute(Fraction(-1))
    assert check_compatibility(g, frame)


def test_heisenberg_needs_scale_one():
    g, frame = load("heisenberg")
    wrong = replace(frame, scale=Fraction(2))
    assert not check_compatibility(g, wrong)


def test_omega_with_a_term_off_h_is_rejected():
    # the whole form is compared: an omega_r with a vertical term never matches d eta_r|_H
    g, frame = load("heisenberg")
    o1, o2, o3 = frame.omegas
    off = replace(frame, omegas=(o1 + mono(5, 6), o2, o3))
    assert check_compatibility(g, frame)
    assert not check_compatibility(g, off)
    assert adapted_shape(g, off) is None


# ---------------------------------------------------------------------------
# first integrability conditions


@pytest.mark.parametrize("name", ["g1", "g2", "heisenberg"])
def test_catalog_bi1(name):
    g, frame = load(name)
    ok, violations = check_bi1(g, frame)
    assert ok
    assert violations == []


def test_bi1_golden_contraction():
    # for g1 the contraction of d(eta_2) with xi_1 restricts to -e4 on H,
    # matched by the opposite contraction, as the duality conditions demand
    g, frame = load("g1")
    de6 = g.differential(6)
    de5 = g.differential(5)
    left = restrict_h(interior(de6, Vec.basis(7, frame.vertical[0])), frame)
    right = restrict_h(interior(de5, Vec.basis(7, frame.vertical[1])), frame)
    assert left == -1 * covector(7, 4)
    assert left == -1 * right


def test_bi1_violation_detected():
    # inject a self-pairing term: d(eta_1) gains e15, so xi_1 contracted
    # into its own differential no longer dies on H
    g = abelian_with({5: mono(1, 2) + mono(3, 4) + mono(1, 5)})
    frame = standard_frame(scale=Fraction(1))
    ok, violations = check_bi1(g, frame)
    assert not ok
    assert violations == ["(xi_1 . d eta_1)|_H != 0"]


def test_bi1_cross_violations_keep_text_and_order():
    # heisenberg with d e6 = e13 - e24 + e27 + e45: a compatible Lie algebra whose
    # d eta_2 gains mixed terms with xi_1 and xi_3 that no other d eta_r balances
    g = abelian_with({
        5: mono(1, 2) + mono(3, 4),
        6: mono(1, 3) - mono(2, 4) + mono(2, 7) + mono(4, 5),
        7: mono(1, 4) + mono(2, 3),
    })
    frame = standard_frame(scale=Fraction(1))
    assert g.is_valid
    assert check_compatibility(g, frame)
    assert check_bi1(g, frame) == (False, [
        "(xi_1 . d eta_2)|_H != -(xi_2 . d eta_1)|_H",
        "(xi_2 . d eta_3)|_H != -(xi_3 . d eta_2)|_H",
    ])


@cache
def verdict_bases() -> list[tuple[LieAlgebra, QCFrame]]:
    """Every catalog entry (prop31_family at its two roots) and NOT_BI1, in the
    declared basis and in each relabelled one."""
    docs = [parse(source(n)) for n in names()] + [parse(NOT_BI1)]
    docs += [relabel(doc, perm) for doc in list(docs) for perm in PERMS]
    out = []
    for doc in docs:
        for mu in ("-1", "-1/3") if doc.algebra.parametric else (None,):
            d = doc if mu is None else doc.substitute(Fraction(mu))
            out.append((d.algebra, d.frame))
    return out


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
NONZERO = RATIONALS.filter(bool)


@st.composite
def edited_qc_pairs(draw):
    """A base pair with one edit: a rational added to a d e_v coefficient on an
    (h, h), (v, h) or (v, v') pair, one omega scaled or given a term off H, or
    the declared scale changed."""
    g, frame = draw(st.sampled_from(verdict_bases()))
    h, v = frame.horizontal, frame.vertical
    edit = draw(st.sampled_from(("hh", "vh", "vv", "omega_scaled", "omega_off_h", "scale")))
    if edit in ("hh", "vh", "vv"):
        first, second = {"hh": (h, h), "vh": (v, h), "vv": (v, v)}[edit]
        a, b = draw(st.sampled_from([(a, b) for a in first for b in second if a != b]))
        k = draw(st.sampled_from(v))
        diffs = list(g.differentials)
        diffs[k - 1] = diffs[k - 1] + Form.monomial(7, draw(NONZERO), (a, b))
        g = LieAlgebra(g.name, 7, tuple(diffs), None)
    elif edit.startswith("omega"):
        r = draw(st.integers(0, 2))
        omegas = list(frame.omegas)
        if edit == "omega_scaled":
            omegas[r] = draw(RATIONALS) * omegas[r]
        else:
            pair = (draw(st.sampled_from(h + v)), draw(st.sampled_from(v)))
            omegas[r] = omegas[r] + Form.monomial(7, draw(NONZERO), pair)
        frame = replace(frame, omegas=tuple(omegas))
    else:
        frame = replace(frame, scale=draw(RATIONALS))
    return g, frame


@settings(max_examples=200, deadline=None)
@given(edited_qc_pairs())
def test_table_read_verdicts_match_the_form_definitions(pair):
    # the gate reads C[a][b][v_k] off the structure table; the oracles read the
    # same conditions through restrict_h and Form.pair on the differentials
    g, frame = pair
    assert check_compatibility(g, frame) == compatible(g, frame)
    violations = bi1_violations(g, frame)
    assert check_bi1(g, frame) == (not violations, violations)


def test_the_gate_rejects_a_parameter_in_an_omega():
    # a Poly coefficient never equals the table's ints, so the gate names it instead
    doc = parse(PARAM_IN_OMEGA)
    message = "heisenberg: omega1 carries parameter 'mu'; substitute a value first"
    for check in (check_compatibility, adapt):
        with pytest.raises(ParametricNotSupported, match=f"^{re.escape(message)}$"):
            check(doc.algebra, doc.frame)
    for mu, verdict in ((0, True), (1, False)):
        at = doc.substitute(Fraction(mu))
        assert check_compatibility(at.algebra, at.frame) is verdict


def test_the_gate_rejects_a_parametric_algebra():
    # like structure_table: every command specializes before the gate
    doc = document("prop31_family")
    for check in (check_compatibility, check_bi1, adapted_shape):
        with pytest.raises(ParametricNotSupported):
            check(doc.algebra, doc.frame)


# ---------------------------------------------------------------------------
# adapted shape


def test_adapted_shape_g1():
    g, frame = load("g1")
    shape = adapted_shape(g, frame)
    assert shape is not None
    f1, f2, f3 = shape
    assert f1.is_zero
    assert f2.is_zero
    assert f3 == covector(7, 4)


def test_adapted_shape_heisenberg():
    g, frame = load("heisenberg")
    shape = adapted_shape(g, frame)
    assert shape == (Form.zero(7, 1), Form.zero(7, 1), Form.zero(7, 1))


def test_adapted_shape_rejects_wrong_horizontal_part():
    g = abelian_with({5: mono(1, 3)})
    frame = standard_frame(scale=Fraction(1))
    assert adapted_shape(g, frame) is None


# ---------------------------------------------------------------------------
# fundamental 4-form and vertical integrability


def test_fundamental_form_value():
    frame = standard_frame()
    assert fundamental_form(frame) == 6 * Form.monomial(7, Fraction(1), (1, 2, 3, 4))


@pytest.mark.parametrize("name", ["g1", "g2", "heisenberg"])
def test_catalog_fundamental_form_closed(name):
    g, frame = load(name)
    assert d_fundamental_form(g, frame).is_zero
    assert vertical_integrable(g, frame)


def test_closedness_tracks_vertical_integrability():
    # injecting a horizontal component into a vertical-vertical bracket
    # simultaneously breaks closedness of the 4-form; removing it restores both
    frame = standard_frame(scale=Fraction(1))
    g = abelian_with({1: mono(5, 6)})
    assert g.is_valid  # still a Lie algebra
    assert not vertical_integrable(g, frame)
    assert not d_fundamental_form(g, frame).is_zero

    flat = abelian_with({})
    assert vertical_integrable(flat, frame)
    assert d_fundamental_form(flat, frame).is_zero
