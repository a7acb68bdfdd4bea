import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcalc.biquard import (
    Connection,
    Curvature,
    Torsion,
    biquard_connection,
    levi_civita,
    ricci_forms,
    run_pipeline,
    solve_qc_scalar_curvature,
    sp1_connection_forms,
    t0_tensor,
    audit,
)
from qcalc.errors import InconsistentCurvature, InconsistentTorsion, NotIntegrable
from qcalc.exterior import Form, LieAlgebra, Vec, rescale_covectors, substitute_form
from qcalc.parser import parse
from qcalc.qc import (
    adapt,
    check_bi1,
    check_compatibility,
    derive_complex_structures,
)
from qcalc.scalars import is_zero, replace, substitute
from oracles import (
    S,
    apply_endo,
    bracket,
    connection_from_gamma,
    connection_torsion,
    covector,
    document,
    dot,
    horizontal_matrix,
    hvec,
    nabla_vec,
    symbolic,
    symbolic_connection_forms,
    symbolic_ricci_forms,
    standard_frame,
    standard_omegas,
    t0_oracle,
)
from test_conformal import PIPELINE_CASES, pipeline as case_pipeline
from test_flags import G1_ROTATED_H3


def load(name, mu=None):
    doc = document(name)
    g = doc.algebra
    if mu is not None:
        g = g.substitute(Fraction(mu))
    return g, doc.frame


def pipeline(name, mu=None):
    g, frame = load(name, mu)
    return run_pipeline(g, frame)


def mono(*idx, c=1):
    return Form.monomial(7, Fraction(c), idx)


def ev(i):
    return covector(7, i)


# ---------------------------------------------------------------------------
# sp(1)-connection forms: golden closed forms


def test_connection_forms_g1():
    g, frame = load("g1")
    a1, a2, a3 = symbolic(sp1_connection_forms(g, frame), frame)
    half = Fraction(1, 2)
    assert a1 == (-half * (S - half)) * ev(5)
    assert a2 == (-half * (S - half)) * ev(6)
    assert a3 == -1 * ev(4) + (-half * (S + half)) * ev(7)


def test_connection_forms_g2():
    g, frame = load("g2")
    a1, a2, a3 = symbolic(sp1_connection_forms(g, frame), frame)
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    assert a1 == (-half * (S - sixth)) * ev(5)
    assert a2 == (-half * (S - sixth)) * ev(6)
    assert a3 == -1 * ev(4) + (-half * (S + sixth)) * ev(7)


def test_connection_forms_heisenberg():
    g, frame = adapt(*load("heisenberg"))
    a1, a2, a3 = symbolic(sp1_connection_forms(g, frame), frame)
    for r, a in enumerate((a1, a2, a3)):
        assert a == (-S / 2) * covector(7, frame.vertical[r])


def test_connection_forms_require_duality_conditions():
    # break the duality conditions: eta_1 paired with its own differential
    diffs = list(document("heisenberg").algebra.differentials)
    diffs[4] = diffs[4] + mono(1, 5)
    g = LieAlgebra("broken", 7, tuple(diffs), None)
    frame = standard_frame(scale=Fraction(1))
    with pytest.raises(NotIntegrable):
        adapt(g, frame)
    with pytest.raises(NotIntegrable):
        run_pipeline(g, frame)


# ---------------------------------------------------------------------------
# Ricci 2-forms and the scalar curvature


def test_ricci_forms_g1():
    g, frame = load("g1")
    rhos = symbolic(ricci_forms(g, frame, sp1_connection_forms(g, frame)), frame)
    half = Fraction(1, 2)
    w1 = mono(1, 2) + mono(3, 4)
    w2 = mono(1, 3) + mono(4, 2)
    w3 = mono(1, 4) + mono(2, 3)
    assert rhos[0] == horizontal_matrix((-half * (S - half)) * w1, frame)
    assert rhos[1] == horizontal_matrix((-half * (S - half)) * w2, frame)
    assert rhos[2] == horizontal_matrix(mono(1, 4) + (-half * (S + half)) * w3, frame)


@pytest.mark.parametrize("name,mu", [*PIPELINE_CASES, ("g1_rot_h3", None)])
def test_ricci_pairs_match_the_symbolic_route(name, mu):
    # the S = 0 forms and matrices at their closed-form slopes against alpha and rho
    # built over Poly in S with LieAlgebra.d and Form.wedge; a wrong slope would show
    # in the S coefficient, and an S^2 term surviving on H as a degree-2 entry
    p = rotated_h3_pipeline() if name == "g1_rot_h3" else case_pipeline(name, mu)
    alphas = sp1_connection_forms(p.g, p.frame)
    assert symbolic(alphas, p.frame) == symbolic_connection_forms(p.g, p.frame)
    at_s = [substitute_form(a, p.s_value) for a in symbolic(alphas, p.frame)]
    span = range(1, 8)
    assert [[p.alphas[i, a] for a in span] for i in (1, 2, 3)] == [[al.coeff((a,)) for a in span] for al in at_s]
    expected = [horizontal_matrix(rho, p.frame) for rho in symbolic_ricci_forms(p.g, p.frame)]
    assert symbolic(ricci_forms(p.g, p.frame, alphas), p.frame) == expected
    assert list(p.rhos) == [[[substitute(c, p.s_value) for c in row] for row in rho] for rho in expected]


def test_ricci_pairs_match_the_symbolic_route_with_horizontal_wedges():
    # d eta_i = 2 omega_i + f_j ^ eta_k - f_k ^ eta_j with f_r = e^r (not a Lie algebra):
    # two alphas have horizontal parts, so alpha_i ^ alpha_j reaches H, which it
    # does on no catalog member
    g = parse(
        "algebra wedges dim 7\nd e1 = 0\nd e2 = 0\nd e3 = 0\nd e4 = 0\n"
        "d e5 = 2(e12 + e34) + e27 - e36\nd e6 = 2(e13 + e42) + e35 - e17\nd e7 = 2(e14 + e23) + e16 - e25\n"
    ).algebra
    frame = standard_frame()
    alphas = sp1_connection_forms(g, frame)
    assert sum(any(alphas[r, x] for x in frame.horizontal) for r in (1, 2, 3)) >= 2
    expected = [horizontal_matrix(rho, frame) for rho in symbolic_ricci_forms(g, frame)]
    assert symbolic(ricci_forms(g, frame, alphas), frame) == expected


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
H, V = (1, 2, 3, 4), (5, 6, 7)


@st.composite
def adapted_equations(draw):
    """Structure equations in adapted shape for the standard frame, Jacobi not
    required: d eta_r|_H = 2 omega_r; d eta_k(xi_s, X) zero for k = s and
    antisymmetric in (s, k); random d eta_k(xi_s, xi_t) and random d e^x, x in H."""
    diffs = [2 * om for om in standard_omegas(7, H)]
    for s, k in ((0, 1), (0, 2), (1, 2)):
        for x in H:
            c = draw(RATIONALS)
            diffs[k] = diffs[k] + Form.monomial(7, c, (V[s], x))
            diffs[s] = diffs[s] - Form.monomial(7, c, (V[k], x))
    for k in range(3):
        for s, t in ((0, 1), (0, 2), (1, 2)):
            diffs[k] = diffs[k] + Form.monomial(7, draw(RATIONALS), (V[s], V[t]))
    pairs = [(a, b) for a in range(1, 8) for b in range(a + 1, 8)]
    horizontal = [
        Form.make(7, 2, dict(draw(st.lists(st.tuples(st.sampled_from(pairs), RATIONALS), max_size=4))))
        for _ in H
    ]
    return LieAlgebra("adapted", 7, tuple(horizontal + diffs), None)


@settings(max_examples=60, deadline=None)
@given(adapted_equations())
def test_connection_and_ricci_forms_match_the_symbolic_route_on_adapted_input(g):
    # neither stage needs the Jacobi identity: the integer rows read off the
    # structure table against the Form route through LieAlgebra.d and wedge
    frame = standard_frame()
    assert check_compatibility(g, frame) and check_bi1(g, frame)[0]
    alphas = sp1_connection_forms(g, frame)
    assert symbolic(alphas, frame) == symbolic_connection_forms(g, frame)
    expected = [horizontal_matrix(rho, frame) for rho in symbolic_ricci_forms(g, frame)]
    assert symbolic(ricci_forms(g, frame, alphas), frame) == expected


def test_scalar_curvature_values():
    for name, expected in (("g1", Fraction(-1, 2)), ("g2", Fraction(-1, 6)), ("heisenberg", Fraction(0))):
        g, frame = adapt(*load(name))
        rhos = ricci_forms(g, frame, sp1_connection_forms(g, frame))
        assert solve_qc_scalar_curvature(frame, rhos) == expected


def declared_at(g, frame, scale):
    """The same qc structure with the vertical covectors rescaled to the given scale."""
    factor = Fraction(scale) / frame.scale
    return rescale_covectors(g, {v: factor for v in frame.vertical}), replace(frame, scale=Fraction(scale))


@pytest.mark.parametrize("scale", ["3", "1/2", "-2", "4"])
def test_the_solve_rejects_a_scale_other_than_two(scale):
    # the slope S/2 I_r of each rho_r holds at scale 2 only: called without
    # adapt, the chain raises a qcalc error instead of returning a wrong S
    g, frame = declared_at(*load("g1"), scale)
    assert check_compatibility(g, frame)
    with pytest.raises(InconsistentCurvature, match="adapt"):
        solve_qc_scalar_curvature(frame, ricci_forms(g, frame, sp1_connection_forms(g, frame)))


@pytest.mark.parametrize("name", ["g1", "g2"])
def test_three_contractions_agree(name):
    # each of the three Ricci contractions is its own linear equation in S;
    # substituting the solved value must satisfy all of them
    g, frame = load(name)
    structures = derive_complex_structures(frame)
    at_zero = ricci_forms(g, frame, sp1_connection_forms(g, frame))
    s_value = solve_qc_scalar_curvature(frame, at_zero)
    rhos = symbolic(at_zero, frame)
    for r in range(3):
        rho = [[substitute(c, s_value) for c in row] for row in rhos[r]]
        total = Fraction(0)
        for pos in range(4):
            ea = hvec(frame, pos)
            image = apply_endo(structures[r], [ea.comp(i) for i in frame.horizontal])
            total += sum(rho[pos][k] * image[k] for k in range(4))
        assert total == -4 * s_value
    # rho_1 + I_1^t moves the first contraction by -|I_1|^2 / 2 = -2, and only it
    i1 = structures[0]
    moved = [[x + i1[b][a] for b, x in enumerate(row)] for a, row in enumerate(at_zero[0])]
    with pytest.raises(InconsistentCurvature, match="contractions disagree"):
        solve_qc_scalar_curvature(frame, (moved, *at_zero[1:]))


# ---------------------------------------------------------------------------
# torsion tensor against the closed-form oracle


@pytest.mark.parametrize("a, b, message", [(0, 1, "not symmetric"), (0, 0, "nonzero trace")])
def test_t0_audits_its_symmetry_and_trace(a, b, message):
    # rho_1 - N I_1 with N = E_ab moves T0 = -Sum_r rho_r I_r - 3S g to T0 - N
    p = pipeline("g1")
    assert t0_tensor(p.frame, p.rhos, p.s_value) == p.t0
    i1 = p.frame.complex_structures[0]
    moved = [[x - (i1[b][c] if r == a else 0) for c, x in enumerate(row)] for r, row in enumerate(p.rhos[0])]
    with pytest.raises(InconsistentTorsion, match=message):
        t0_tensor(p.frame, (moved, *p.rhos[1:]), p.s_value)


def test_t0_matches_closed_form_g1():
    p = pipeline("g1")
    assert p.t0 == t0_oracle(p.frame, Fraction(-1, 2))
    diag = [p.t0[i][i] for i in range(4)]
    assert diag == [Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)]


def test_t0_matches_closed_form_g2():
    p = pipeline("g2")
    assert p.t0 == t0_oracle(p.frame, Fraction(-1, 6))


def test_t0_heisenberg_zero():
    p = pipeline("heisenberg")
    assert all(x == 0 for row in p.t0 for x in row)


@pytest.mark.parametrize(
    "name,mu", [("g1", None), ("g2", None), ("heisenberg", None), ("prop31_family", "-1"), ("prop31_family", "-1/3")]
)
def test_t0_quaternionic_average_identity(name, mu):
    # T0(X,Y) + sum_r T0(I_r X, I_r Y) = 0
    p = pipeline(name, mu)
    structures = derive_complex_structures(p.frame)
    for a in range(4):
        for b in range(4):
            total = p.t0[a][b]
            for m in structures:
                ia = [m[k][a] for k in range(4)]
                ib = [m[k][b] for k in range(4)]
                total += sum(
                    ia[x] * ib[y] * p.t0[x][y] for x in range(4) for y in range(4)
                )
            assert total == 0


@pytest.mark.parametrize(
    "name,mu", [("g1", None), ("g2", None), ("heisenberg", None), ("prop31_family", "-1"), ("prop31_family", "-1/3")]
)
def test_torsion_endos_back_substitution(name, mu):
    # 4 g(T_{xi_r}(I_r X), Y) = T0(X, Y) - T0(I_r X, I_r Y)
    p = pipeline(name, mu)
    structures = derive_complex_structures(p.frame)
    for r, m in enumerate(structures):
        endo = p.endos[r]
        for b in range(4):  # X = e_{b+1}
            ix = [m[k][b] for k in range(4)]
            for a in range(4):  # Y = e_{a+1}
                lhs = 4 * sum(endo[a][k] * ix[k] for k in range(4))
                iy = [m[k][a] for k in range(4)]
                rhs = p.t0[b][a] - sum(
                    ix[x] * iy[y] * p.t0[x][y] for x in range(4) for y in range(4)
                )
                assert lhs == rhs


def test_torsion_endo_values():
    p1 = pipeline("g1")
    e1 = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    assert apply_endo(p1.endos[0], e1) == [Fraction(0), Fraction(-1, 4), Fraction(0), Fraction(0)]
    assert all(x == 0 for row in p1.endos[2] for x in row)

    p2 = pipeline("g2")
    assert apply_endo(p2.endos[0], e1) == [Fraction(0), Fraction(-1, 12), Fraction(0), Fraction(0)]
    assert all(x == 0 for row in p2.endos[2] for x in row)


def test_assembled_torsion_slots():
    p = pipeline("g1")
    # horizontal x horizontal: minus the vertical part of the bracket
    br = bracket(p.g, 1, 2)
    expected = Vec(tuple(-br.comp(i) if i >= 5 else Fraction(0) for i in range(1, 8)))
    assert p.torsion.value(1, 2) == expected
    # vertical x vertical
    assert p.torsion.value(5, 6) == Fraction(1, 2) * Vec.basis(7, 7)
    # scalar curvature from the vertical torsion slot
    assert -dot(p.torsion.value(5, 6), Vec.basis(7, 7)) == p.s_value


# ---------------------------------------------------------------------------
# connections


def test_levi_civita_abelian_and_heisenberg():
    z = Form.zero(7, 2)
    abelian = LieAlgebra("abelian", 7, tuple(z for _ in range(7)), None)
    lc = levi_civita(abelian)
    assert all(lc.nabla(a, b).is_zero for a in range(1, 8) for b in range(1, 8))

    heis, _ = load("heisenberg")
    lc = levi_civita(heis)
    assert lc.nabla(1, 2) == Fraction(-1, 2) * Vec.basis(7, 5)


@pytest.mark.parametrize("name", ["g1", "g2", "heisenberg"])
def test_levi_civita_is_metric_and_torsion_free(name):
    g, _ = load(name)
    lc = levi_civita(g)
    for a in range(1, 8):
        for b in range(1, 8):
            gap = lc.nabla(a, b) - lc.nabla(b, a) - bracket(g, a, b)
            assert gap.is_zero
            for c in range(1, 8):
                assert lc.nabla(a, b).comp(c) + lc.nabla(a, c).comp(b) == 0


def test_canonical_connection_heisenberg_vanishes_horizontally():
    p = pipeline("heisenberg")
    assert p.conn.nabla(1, 2).is_zero
    assert all(p.conn.nabla(a, b).is_zero for a in range(1, 5) for b in range(1, 5))


@pytest.mark.parametrize("name", ["g1", "g2"])
def test_connection_torsion_roundtrip(name):
    p = pipeline(name)
    recomputed = connection_torsion(p.g, p.conn)
    for a in range(1, 8):
        for b in range(a + 1, 8):
            assert recomputed[(a, b)] == p.torsion.value(a, b)


# ---------------------------------------------------------------------------
# curvature


def test_curvature_g1():
    p = pipeline("g1")
    assert p.conn.nabla(5, 1) == Fraction(1, 4) * Vec.basis(7, 2)
    assert p.riem[(1, 2, 1, 2)] == Fraction(1, 2)


def test_curvature_g2():
    p = pipeline("g2")
    assert p.riem[(1, 2, 1, 2)] == Fraction(11, 18)


def test_curvature_heisenberg_flat():
    p = pipeline("heisenberg")
    assert all(is_zero(v) for v in p.riem.values())


@pytest.mark.parametrize("name,total", [("g1", -12), ("g2", -4)])
def test_horizontal_scalar_contraction(name, total):
    p = pipeline(name)
    acc = Fraction(0)
    for a in p.frame.horizontal:
        for b in p.frame.horizontal:
            acc += p.riem[(b, a, a, b)]
    assert acc == total
    assert acc == 24 * p.s_value


# ---------------------------------------------------------------------------
# audits and scale-invariance


@pytest.mark.parametrize(
    "name,mu", [("g1", None), ("g2", None), ("heisenberg", None), ("prop31_family", "-1"), ("prop31_family", "-1/3")]
)
def test_audit_all_pass(name, mu):
    p = pipeline(name, mu)
    checks = audit(p)
    assert [c["name"] for c in checks] == [
        "metric_compatibility",
        "preserves_splitting",
        "rotates_complex_structures",
        "torsion_endo_properties",
        "ricci_from_curvature",
        "scalar_from_curvature",
        "scalar_from_torsion",
        "torsion_roundtrip",
    ]
    assert all(c["passed"] for c in checks), checks


@pytest.mark.parametrize("mu,twin", [("-1", "g1"), ("-1/3", "g2")])
def test_family_pipeline_equals_rescaled_twin(mu, twin):
    # the scale-1 family members are the catalog algebras in rescaled
    # vertical coordinates, so the whole pipeline must coincide
    pf = pipeline("prop31_family", mu)
    pt = pipeline(twin)
    assert pf.s_value == pt.s_value
    assert pf.t0 == pt.t0
    assert pf.endos == pt.endos
    assert pf.riem == pt.riem


@pytest.mark.parametrize("scale", ["3", "1/2", "-2"])
@pytest.mark.parametrize(
    "name,mu",
    [("g1", None), ("g2", None), ("heisenberg", None), ("prop31_family", "-1"), ("prop31_family", "-1/3"), ("g1_rot_h3", None)],
)
def test_declared_scale_leaves_the_pipeline_unchanged(name, mu, scale):
    # the same structure declared at another scale, the vertical covectors rescaled
    # to match: run_pipeline rebases both to scale 2, so every output coincides
    if name == "g1_rot_h3":
        doc = parse(G1_ROTATED_H3)
        g, frame = doc.algebra, doc.frame
    else:
        g, frame = load(name, mu)
    p, q = run_pipeline(g, frame), run_pipeline(*declared_at(g, frame, scale))
    assert (q.s_value, q.t0, q.endos) == (p.s_value, p.t0, p.endos)
    assert q.riem == p.riem
    assert all(c["passed"] for c in audit(q))


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction definitions they replaced

def reference_levi_civita(g):
    """Koszul formula over g.bracket, one Fraction entry at a time."""
    n = g.dim
    br = {(a, b): bracket(g, a, b) for a in range(1, n + 1) for b in range(1, n + 1)}
    return {
        (a, b): Vec(tuple(
            (br[(a, b)].comp(c) - br[(b, c)].comp(a) + br[(c, a)].comp(b)) / 2
            for c in range(1, n + 1)
        ))
        for a in range(1, n + 1)
        for b in range(1, n + 1)
    }


def reference_canonical(g, lc_gamma, torsion):
    """The torsion correction through dot, added to the Levi-Civita table."""
    n = g.dim
    e = [None] + [Vec.basis(n, i) for i in range(1, n + 1)]
    return {
        (a, b): Vec(tuple(
            lc_gamma[(a, b)].comp(c)
            + (dot(torsion.value(a, b), e[c]) - dot(torsion.value(b, c), e[a]) + dot(torsion.value(c, a), e[b])) / 2
            for c in range(1, n + 1)
        ))
        for a in range(1, n + 1)
        for b in range(1, n + 1)
    }


def reference_curvature(g, conn):
    """R(a,b,c,.) = nabla_a nabla_b e_c - nabla_b nabla_a e_c - nabla_[a,b] e_c via nabla_vec."""
    n = g.dim
    riem = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                vec = (
                    nabla_vec(conn, Vec.basis(n, a), conn.nabla(b, c))
                    - nabla_vec(conn, Vec.basis(n, b), conn.nabla(a, c))
                    - nabla_vec(conn, bracket(g, a, b), Vec.basis(n, c))
                )
                for d in range(1, n + 1):
                    riem[(a, b, c, d)] = vec.comp(d)
    return riem


def rotated_h3_pipeline():
    doc = parse(G1_ROTATED_H3)
    return run_pipeline(doc.algebra, doc.frame)


@pytest.mark.parametrize("name,mu", [*PIPELINE_CASES, ("g1_rot_h3", None)])
def test_integer_kernels_match_fraction_definitions(name, mu):
    p = rotated_h3_pipeline() if name == "g1_rot_h3" else case_pipeline(name, mu)
    lc = reference_levi_civita(p.g)
    assert levi_civita(p.g).gamma == lc
    n, e = p.g.dim, p.g.structure_table[0]
    zero = Torsion(n, e, [[[0] * n for _ in range(n)] for _ in range(n)])
    assert biquard_connection(p.g, zero) == levi_civita(p.g)
    # a torsion whose denominator is not a multiple of E
    odd = Torsion(n, 1, p.torsion.table)
    assert biquard_connection(p.g, odd).gamma == reference_canonical(p.g, lc, odd)
    gamma = reference_canonical(p.g, lc, p.torsion)
    assert p.conn.gamma == gamma
    assert list(p.conn.gamma) == list(gamma)
    assert all(isinstance(x, Fraction) for v in p.conn.gamma.values() for x in v.comps)
    riem = reference_curvature(p.g, connection_from_gamma(gamma))
    assert list(riem) == list(itertools.product(range(1, n + 1), repeat=4))
    assert p.riem.values() == list(riem.values())
    assert [p.riem[key] for key in riem] == list(riem.values())
    assert all(isinstance(x, Fraction) for x in p.riem.values())


def _times(k, table):
    return [_times(k, x) for x in table] if isinstance(table, list) else k * table


def _entries(table):
    return [y for x in table for y in _entries(x)] if isinstance(table, list) else [table]


@pytest.mark.parametrize("name,mu", [*PIPELINE_CASES, ("g1_rot_h3", None)])
def test_pipeline_tensors_hold_only_ints(name, mu):
    p = rotated_h3_pipeline() if name == "g1_rot_h3" else case_pipeline(name, mu)
    for tensor, rank in ((p.torsion, 3), (p.conn, 3), (p.riem, 4)):
        entries = _entries(tensor.table)
        assert len(entries) == p.g.dim**rank
        assert all(type(x) is int for x in entries), type(tensor).__name__


@pytest.mark.parametrize("name", ["g2", "g2_rot"])
def test_tensors_compare_by_value(name):
    p = case_pipeline(name)
    for tensor in (p.torsion, p.conn, p.riem):
        cls = type(tensor)
        triple = cls(tensor.dim, 3 * tensor.den, _times(3, tensor.table))
        assert triple == tensor and tensor == triple
        changed = _times(3, tensor.table)
        row = changed[1][0]
        while isinstance(row[0], list):
            row = row[2]
        row[2] += 1
        assert cls(tensor.dim, 3 * tensor.den, changed) != tensor
    n, e = p.g.dim, p.g.structure_table[0]
    zero = Torsion(n, 3 * e, [[[0] * n for _ in range(n)] for _ in range(n)])
    assert biquard_connection(p.g, zero) == levi_civita(p.g)


def _audit_results(p):
    return {c["name"]: c["passed"] for c in audit(p)}


@pytest.mark.parametrize("name", ["g2", "g2_rot"])
def test_audit_fails_on_a_changed_christoffel_symbol(name):
    p = case_pipeline(name)
    # Gamma_123 raised by 1/7: the table over 7 den, with den added at the key
    table = _times(7, p.conn.table)
    table[0][1][2] += p.conn.den
    conn = Connection(p.conn.dim, 7 * p.conn.den, table)
    assert conn[(1, 2, 3)] == p.conn[(1, 2, 3)] + Fraction(1, 7)
    assert sum(x != 7 * y for x, y in zip(_entries(table), _entries(p.conn.table))) == 1
    results = _audit_results(replace(p, conn=conn))
    assert results["metric_compatibility"] is False
    assert results["torsion_roundtrip"] is False
    assert results["ricci_from_curvature"] and results["scalar_from_curvature"]


@pytest.mark.parametrize("name", ["g2", "g2_rot"])
def test_audit_fails_on_a_changed_torsion_entry(name):
    p = case_pipeline(name)
    h, v = [x - 1 for x in p.frame.horizontal], [x - 1 for x in p.frame.vertical]

    def audited(scale, edit=None):
        """The audit with T over scale * den, and with T(e_a, e_b)_x raised by
        1/(scale * den) and T(e_b, e_a)_x lowered for the edit (a, b, x)."""
        table = [[[scale * y for y in vec] for vec in row] for row in p.torsion.table]
        if edit:
            a, b, x = edit
            table[a][b][x] += 1
            table[b][a][x] -= 1
        return _audit_results(replace(p, torsion=Torsion(p.torsion.dim, scale * p.torsion.den, table)))

    # the same torsion over another denominator than Gamma's passes
    assert all(audited(3).values())
    # T(xi_1, xi_2) at xi_3 is -S
    results = audited(1, (v[0], v[1], v[2]))
    assert results["scalar_from_torsion"] is False
    assert results["torsion_roundtrip"] is False
    # a horizontal pair: only the roundtrip reads it
    results = audited(3, (h[0], h[1], v[0]))
    assert results.pop("torsion_roundtrip") is False
    assert all(results.values()), results


@pytest.mark.parametrize("name", ["g2", "g2_rot"])
def test_audit_fails_on_a_changed_horizontal_curvature_entry(name):
    p = case_pipeline(name)
    h = p.frame.horizontal
    key = (h[0], h[1], h[1], h[0])
    # R at the key raised by 1/5: the table over 5 den, with den added at the key
    table = _times(5, p.riem.table)
    a, b = h[0] - 1, h[1] - 1
    table[a][b][b][a] += p.riem.den
    riem = Curvature(p.riem.dim, 5 * p.riem.den, table)
    assert riem[key] == p.riem[key] + Fraction(1, 5)
    assert sum(x != 5 * y for x, y in zip(_entries(table), _entries(p.riem.table))) == 1
    results = _audit_results(replace(p, riem=riem))
    assert results["ricci_from_curvature"] is False
    assert results["scalar_from_curvature"] is False
    assert results["metric_compatibility"] and results["torsion_roundtrip"]
