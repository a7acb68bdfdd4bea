"""Acceptance gate: twelve numbered criteria, one printed verdict line each.

Run with output capture disabled (the default here) so every line appears in
the test log.  Each criterion is a single test; the printed line reports PASS
or FAIL for the whole criterion.
"""

import itertools
import json
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from qcalc.biquard import (
    CYCLES,
    ricci_forms,
    run_pipeline,
    sp1_connection_forms,
)
from qcalc.catalog import names, source
from qcalc.conformal import kulkarni_nomizu, wqc_tensor
from qcalc.exterior import (
    Flag,
    Form,
    LieAlgebra,
    Vec,
    cohomology_dim,
    derived_and_central_series,
    search_flag,
    substitute_form,
    verify_flag,
)
from qcalc.family import rescale_covectors, solve_family, specialize
from qcalc.parser import parse, print_document
from qcalc.qc import (
    check_bi1,
    d_fundamental_form,
    derive_complex_structures,
    standard_frame,
    vertical_integrable,
)
from qcalc.scalars import substitute
from oracles import (
    S,
    apply_endo,
    covector,
    document,
    dot,
    evaluate,
    from_hcomps,
    hcomps,
    hvec,
    jacobi_check,
    linear_coeffs,
    nabla_vec,
    symbolic,
)

PIPELINE_CASES = (
    ("g1", None),
    ("g2", None),
    ("heisenberg", None),
    ("prop31_family", "-1"),
    ("prop31_family", "-1/3"),
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:>2}] {description}: FAIL", flush=True)
        raise
    print(f"[criterion {number:>2}] {description}: PASS", flush=True)


@lru_cache(maxsize=None)
def algebra(name, mu=None):
    doc = document(name)
    g = doc.algebra
    if mu is not None:
        g = specialize(g, Fraction(mu))
    return g, doc.frame


@lru_cache(maxsize=None)
def pipeline(name, mu=None):
    g, frame = algebra(name, mu)
    return run_pipeline(g, frame)


def ev(i):
    return covector(7, i)


def mono(*idx, c=1):
    return Form.monomial(7, Fraction(c), idx)


def wedge_power(f, k):
    out = f
    for _ in range(k - 1):
        out = out.wedge(f)
    return out


def level_forms(flag, i):
    return [
        Form.make(flag.dim, 1, {(j,): c for j, c in enumerate(row, start=1) if c})
        for row in flag.levels[i - 1]
    ]


def catalog_flag(name, mu=None):
    flag = document(name).flag
    if mu is not None:
        levels = tuple(
            tuple(
                tuple(
                    x.substitute(Fraction(mu)) if hasattr(x, "substitute") else x
                    for x in row
                )
                for row in level
            )
            for level in flag.levels
        )
        flag = Flag(flag.dim, levels)
    return flag


def t0_oracle(frame, coeff):
    pattern = mono(1, 4) - mono(2, 3)
    _, _, i3 = derive_complex_structures(frame)
    out = []
    for a in range(4):
        row = []
        for b in range(4):
            image = apply_endo(i3, [Fraction(1 if k == b else 0) for k in range(4)])
            iy = sum((image[k] * hvec(frame, k) for k in range(4)), Vec.zero(7))
            row.append(coeff * evaluate(pattern, [hvec(frame, a), iy]))
        out.append(row)
    return out


def i_image(frame, m, pos):
    unit = [Fraction(1 if c == pos else 0) for c in range(4)]
    return from_hcomps(frame, apply_endo(m, unit))


# ---------------------------------------------------------------------------


def test_criterion_01():
    with criterion(1, "catalog structure equations satisfy d^2 = 0"):
        for name in ("g1", "g2", "heisenberg"):
            g, _ = algebra(name)
            assert jacobi_check(g) == []


def test_criterion_02():
    with criterion(2, "integrability conditions hold so the connection exists"):
        for name in ("g1", "g2"):
            g, frame = algebra(name)
            ok, violations = check_bi1(g, frame)
            assert ok and violations == []


def test_criterion_03():
    with criterion(3, "fundamental 4-form closed iff vertical brackets stay vertical"):
        for name in ("g1", "g2"):
            g, frame = algebra(name)
            assert d_fundamental_form(g, frame).is_zero
            assert vertical_integrable(g, frame)
        z = Form.zero(7, 2)
        diffs = [z] * 7
        diffs[0] = mono(5, 6)
        perturbed = LieAlgebra("perturbed", 7, tuple(diffs), None)
        pframe = standard_frame()
        assert jacobi_check(perturbed) == []
        assert not vertical_integrable(perturbed, pframe)
        assert not d_fundamental_form(perturbed, pframe).is_zero
        cases = [algebra("g1"), algebra("g2"), algebra("heisenberg"), (perturbed, pframe)]
        for g, frame in cases:
            closed = d_fundamental_form(g, frame).is_zero
            assert closed == vertical_integrable(g, frame)


def test_criterion_04():
    with criterion(4, "scalar curvature agrees across all three contractions"):
        expected = {
            "g1": Fraction(-1, 2),
            "g2": Fraction(-1, 6),
            "heisenberg": Fraction(0),
        }
        for name, want in expected.items():
            p = pipeline(name)
            assert p.s_value == want
            structures = derive_complex_structures(p.frame)
            rhos = symbolic(ricci_forms(p.g, p.frame, sp1_connection_forms(p.g, p.frame)), p.frame)
            for r in range(3):
                total = Fraction(0)
                rho = rhos[r]
                for pos in range(4):
                    iy = hcomps(p.frame, i_image(p.frame, structures[r], pos))
                    total = total + sum((rho[pos][b] * iy[b] for b in range(4)), Fraction(0))
                slope, const = linear_coeffs(total + 4 * S, "S")
                assert -const / slope == want


def test_criterion_05():
    with criterion(5, "connection 1-forms match their closed-form expressions"):
        half = Fraction(1, 2)
        for name, c in (("g1", Fraction(1, 2)), ("g2", Fraction(1, 6))):
            g, frame = algebra(name)
            alphas = symbolic(sp1_connection_forms(g, frame), frame)
            golden = (
                (-half * (S - c)) * ev(5),
                (-half * (S - c)) * ev(6),
                -1 * ev(4) + (-half * (S + c)) * ev(7),
            )
            s_value = pipeline(name).s_value
            for computed, target in zip(alphas, golden):
                assert substitute_form(computed, s_value) == substitute_form(
                    target, s_value
                )


def test_criterion_06():
    with criterion(6, "torsion tensor and endomorphisms match the closed forms"):
        e1 = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        cases = (
            ("g1", Fraction(-1, 2), Fraction(-1, 4)),
            ("g2", Fraction(-1, 6), Fraction(-1, 12)),
        )
        for name, coeff, kick in cases:
            p = pipeline(name)
            assert p.t0 == t0_oracle(p.frame, coeff)
            assert all(x == 0 for row in p.endos[2] for x in row)
            assert apply_endo(p.endos[0], e1) == [
                Fraction(0),
                kick,
                Fraction(0),
                Fraction(0),
            ]
        ph = pipeline("heisenberg")
        assert all(x == 0 for endo in ph.endos for row in endo for x in row)


def test_criterion_07():
    with criterion(7, "curvature samples and both scalar identities are exact"):
        assert pipeline("g1").riem[(1, 2, 1, 2)] == Fraction(1, 2)
        assert pipeline("g2").riem[(1, 2, 1, 2)] == Fraction(11, 18)
        for name in ("g1", "g2", "heisenberg"):
            p = pipeline(name)
            total = Fraction(0)
            for a in p.frame.horizontal:
                for b in p.frame.horizontal:
                    total += p.riem[(b, a, a, b)]
            assert total == 24 * p.s_value
            t12 = p.torsion.value(p.frame.vertical[0], p.frame.vertical[1])
            assert -dot(t12, Vec.basis(7, p.frame.vertical[2])) == p.s_value


def test_criterion_08():
    with criterion(8, "conformal curvature building blocks and sample values"):
        gm = [[Fraction(1 if a == b else 0) for b in range(4)] for a in range(4)]
        gg = kulkarni_nomizu(gm, gm)
        assert gg[0][1][0][1] == 2

        frame = algebra("g1")[1]
        total = Fraction(0)
        for om in frame.omegas:
            mat = [
                [evaluate(om, [hvec(frame, a), hvec(frame, b)]) for b in range(4)]
                for a in range(4)
            ]
            knp = kulkarni_nomizu(mat, mat)
            total += knp[0][1][0][1] + 4 * mat[0][1] * mat[0][1]
        assert total == 6

        def derived_sample(name):
            """W^qc(e1, e2, e1, e2) from R and S alone, without wqc_tensor.

            In the standard frame omega_1(e1, e2) = 1, I_1 exchanges e1 and
            e2 up to sign, and omega_2, omega_3 vanish on (e1, e2).  Each T0
            term of W^qc on (e1, e2, e1, e2) (from g (kn) L0, omega_s (kn)
            I_s L0 and the cross term) is then a multiple of
            T0(e1, e1) + T0(e2, e2), and what is left is
            R + (S/4)(g (kn) g + sum_s (omega_s (kn) omega_s + 4 omega_s x omega_s)).
            """
            p = pipeline(name)
            assert p.frame.omegas == frame.omegas
            assert p.t0[0][0] + p.t0[1][1] == 0
            return p.riem[(1, 2, 1, 2)] + p.s_value / 4 * (gg[0][1][0][1] + total)

        assert derived_sample("g1") == Fraction(-1, 2)
        assert derived_sample("g2") == Fraction(5, 18)

        def w(name):
            return wqc_tensor(pipeline(name))

        assert w("g1")[(1, 2, 1, 2)] == Fraction(-1, 2)
        wh = w("heisenberg")
        for idx in itertools.product(range(1, 5), repeat=4):
            assert wh[idx] == 0
        assert w("g2")[(1, 2, 1, 2)] == Fraction(5, 18)


def test_criterion_09():
    with criterion(9, "family solves, specializes, rescales, and fingerprints"):
        fam = document("prop31_family").algebra
        assert solve_family(fam) == {Fraction(-1), Fraction(-1, 3)}
        for value, twin, b2 in (
            (Fraction(-1), "g1", 2),
            (Fraction(-1, 3), "g2", 0),
        ):
            g = specialize(fam, value)
            assert jacobi_check(g) == []
            doubled = rescale_covectors(
                g, {5: Fraction(2), 6: Fraction(2), 7: Fraction(2)}
            )
            target, _ = algebra(twin)
            for k in range(1, 8):
                assert doubled.differential(k) == target.differential(k)
            assert cohomology_dim(g, 2) == b2
        series = derived_and_central_series(algebra("heisenberg")[0])
        assert series["is_nilpotent"]
        for name in ("g1", "g2"):
            series = derived_and_central_series(algebra(name)[0])
            assert series["is_solvable"] and not series["is_nilpotent"]


def test_criterion_10():
    with criterion(10, "ascending flags verify, degenerate correctly, and are absent for so(3)+R^4"):
        verified = [
            (algebra("heisenberg")[0], catalog_flag("heisenberg")),
            (algebra("prop31_family", "-1")[0], catalog_flag("prop31_family", "-1")),
            (
                algebra("prop31_family", "-1/3")[0],
                catalog_flag("prop31_family", "-1/3"),
            ),
        ]
        for g, flag in verified:
            ok, reason = verify_flag(g, flag)
            assert ok, reason
        for g, flag in verified:
            for i in range(1, 8):
                forms = level_forms(flag, i)
                combos = list(forms)
                for x, y in itertools.combinations(forms, 2):
                    combos.append(x + y)
                k = (i + 1) // 2
                for a in combos:
                    da = g.d(a)
                    if i % 2 == 1:
                        assert wedge_power(da, k).is_zero
                    else:
                        assert a.wedge(wedge_power(da, k)).is_zero
        e = lambda i, j: mono(i, j)
        z = Form.zero(7, 2)
        so3r4 = LieAlgebra(
            "so3r4", 7, (e(2, 3), e(3, 1), e(1, 2), z, z, z, z), None
        )
        assert search_flag(so3r4) is None


def test_criterion_11():
    with criterion(11, "connection property suite holds on every catalog algebra"):
        for name, mu in PIPELINE_CASES:
            p = pipeline(name, mu)
            g, frame = p.g, p.frame
            structures = derive_complex_structures(frame)

            for a in range(4):
                for b in range(4):
                    total = p.t0[a][b]
                    for m in structures:
                        ia = [m[k][a] for k in range(4)]
                        ib = [m[k][b] for k in range(4)]
                        total += sum(
                            ia[x] * ib[y] * p.t0[x][y]
                            for x in range(4)
                            for y in range(4)
                        )
                    assert total == 0

            for r, m in enumerate(structures):
                endo = p.endos[r]
                for b in range(4):
                    ix = [m[k][b] for k in range(4)]
                    for a in range(4):
                        lhs = 4 * sum(endo[a][k] * ix[k] for k in range(4))
                        iy = [m[k][a] for k in range(4)]
                        rhs = p.t0[b][a] - sum(
                            ix[x] * iy[y] * p.t0[x][y]
                            for x in range(4)
                            for y in range(4)
                        )
                        assert lhs == rhs

            hset, vset = set(frame.horizontal), set(frame.vertical)
            for a in range(1, 8):
                for b in range(1, 8):
                    vec = p.conn.nabla(a, b)
                    for c in range(1, 8):
                        assert vec.comp(c) + p.conn.nabla(a, c).comp(b) == 0
                    wrong = vset if b in hset else hset
                    assert all(vec.comp(i) == 0 for i in wrong)

            alphas_n = [substitute_form(al, p.s_value) for al in symbolic(sp1_connection_forms(p.g, frame), frame)]
            for i, j, k in CYCLES:
                for a in range(1, 8):
                    ea = Vec.basis(7, a)
                    aj = evaluate(alphas_n[j], [ea])
                    ak = evaluate(alphas_n[k], [ea])
                    for pos in range(4):
                        ix = i_image(frame, structures[i], pos)
                        lhs = nabla_vec(p.conn, ea, ix) - from_hcomps(
                            frame,
                            apply_endo(
                                structures[i],
                                hcomps(frame, p.conn.nabla(a, frame.horizontal[pos])),
                            ),
                        )
                        rhs = -aj * i_image(frame, structures[k], pos) + ak * i_image(
                            frame, structures[j], pos
                        )
                        assert lhs == rhs

            rhos_s = symbolic(ricci_forms(p.g, frame, sp1_connection_forms(p.g, frame)), frame)
            rhos_n = [[[substitute(c, p.s_value) for c in row] for row in r] for r in rhos_s]
            assert rhos_n == list(p.rhos)
            for rho, m in zip(rhos_n, structures):
                for xpos in range(4):
                    for ypos in range(4):
                        x_idx = frame.horizontal[xpos]
                        y_idx = frame.horizontal[ypos]
                        total = Fraction(0)
                        for a in range(4):
                            ia = apply_endo(
                                m, [Fraction(1 if c == a else 0) for c in range(4)]
                            )
                            for bpos in range(4):
                                if ia[bpos] == 0:
                                    continue
                                total = total + ia[bpos] * p.riem[
                                    (
                                        x_idx,
                                        y_idx,
                                        frame.horizontal[a],
                                        frame.horizontal[bpos],
                                    )
                                ]
                        assert total == 4 * rho[xpos][ypos]


def test_criterion_12(tmp_path):
    with criterion(12, "documents round-trip and grammar errors carry positions"):
        for name in names():
            doc = parse(source(name))
            printed = print_document(doc)
            assert parse(printed) == doc

        broken = {
            "degree.alg": "algebra x dim 2\nd e1 = e1\nd e2 = 0\n",
            "duplicate.alg": "algebra x dim 2\nd e1 = 0\nd e1 = 0\nd e2 = 0\n",
            "range.alg": "algebra x dim 2\nd e1 = e13\nd e2 = 0\n",
        }
        for fname, text in broken.items():
            path = tmp_path / fname
            path.write_text(text)
            proc = subprocess.run(
                [sys.executable, "-m", "qcalc.cli", "check", str(path), "--format", "json"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2
            obj = json.loads(proc.stderr)
            assert isinstance(obj["error"]["line"], int)
            assert isinstance(obj["error"]["col"], int)
            assert obj["error"]["line"] >= 1
