import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcalc
import qcalc.cli
from qcalc.catalog import names, source
from qcalc.errors import NotQuaternionic
from qcalc.exterior import verify_flag
from qcalc.parser import parse
from qcalc.qc import adapt, adapted_shape
from test_conformal import G2_ROTATED
from test_relabel import NOT_BI1, OFF_H

REPORT_KEYS = [
    "name",
    "jacobi",
    "qc_valid",
    "bi1",
    "S",
    "T0",
    "torsion_endos",
    "torsion_nonzero",
    "dOmega_zero",
    "vertical_integrable",
    "R_samples",
    "wqc_samples",
    "conformally_flat",
    "audit",
    "fingerprint",
]


def run(*args, env_extra=None, timeout=None):
    env = os.environ.copy()
    env.pop("QCALC_FORMAT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qcalc.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def run_in_process(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qcalc.cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def jout(result):
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture
def bad_jacobi(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text(
        "algebra bad dim 4\nd e1 = 0\nd e2 = e12\nd e3 = 0\nd e4 = e23\n"
    )
    return str(path)


@pytest.fixture
def so3_r4(tmp_path):
    path = tmp_path / "so3r4.alg"
    path.write_text(
        "algebra so3r4 dim 7\nd e1 = e23\nd e2 = e31\nd e3 = e12\n"
        "d e4 = 0\nd e5 = 0\nd e6 = 0\nd e7 = 0\n"
    )
    return str(path)


# ---------------------------------------------------------------------------
# report and check


def test_report_json_key_order():
    out = jout(run("report", "--catalog", "g1", "--format", "json"))
    assert list(out.keys()) == REPORT_KEYS
    assert out["S"] == "-1/2"
    assert out["jacobi"] is True
    assert out["conformally_flat"] is False
    assert out["fingerprint"]["betti"] == [1, 1, 2, 4, 2, 1, 1, 0]


def test_report_is_deterministic():
    a = run("report", "--catalog", "g2", "--format", "json")
    b = run("report", "--catalog", "g2", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_report_samples_shape():
    out = jout(run("report", "--catalog", "g2", "--format", "json"))
    idx = [tuple(s["idx"]) for s in out["R_samples"]]
    assert idx == [(1, 2, 1, 2), (1, 3, 1, 3), (1, 4, 1, 4), (3, 4, 3, 4)]
    values = {tuple(s["idx"]): s["value"] for s in out["R_samples"]}
    assert values[(1, 2, 1, 2)] == "11/18"
    assert values[(1, 4, 1, 4)] == "4/9"
    wvalues = {tuple(s["idx"]): s["value"] for s in out["wqc_samples"]}
    assert wvalues[(1, 4, 1, 4)] == "-5/9"


def test_report_text_mode_mentions_scalar():
    r = run("report", "--catalog", "g1")
    assert r.returncode == 0
    assert "-1/2" in r.stdout


def test_report_exit_1_on_jacobi_failure(bad_jacobi):
    r = run("report", bad_jacobi, "--format", "json")
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert out["jacobi"] is False
    assert out["S"] is None


def test_check_passes_catalog():
    for name in ("g1", "g2", "heisenberg"):
        r = run("check", "--catalog", name)
        assert r.returncode == 0, r.stderr


def test_check_fails_bad_algebra(bad_jacobi):
    assert run("check", bad_jacobi).returncode == 1


# ---------------------------------------------------------------------------
# formats and error surfaces


def test_env_format_and_flag_priority():
    r = run("report", "--catalog", "heisenberg", env_extra={"QCALC_FORMAT": "json"})
    json.loads(r.stdout)
    r2 = run(
        "report",
        "--catalog",
        "heisenberg",
        "--format",
        "text",
        env_extra={"QCALC_FORMAT": "json"},
    )
    with pytest.raises(json.JSONDecodeError):
        json.loads(r2.stdout)


def test_parse_error_json_object(tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text("algebra x dim 2\nd e1 = e9\nd e2 = 0\n")
    r = run("check", str(path), "--format", "json")
    assert r.returncode == 2
    assert r.stdout == ""
    obj = json.loads(r.stderr)
    assert set(obj["error"]) == {"message", "line", "col"}
    assert obj["error"]["line"] == 2


def test_parse_error_text(tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text("algebra x dim 2\nd e1 = e1 $ e2\nd e2 = 0\n")
    r = run("check", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith("error: line 2, col ")


def test_missing_file_and_bad_catalog():
    assert run("check", "/nonexistent/x.alg").returncode == 2
    assert run("check", "--catalog", "nope").returncode == 2


def test_file_and_catalog_are_exclusive(bad_jacobi):
    r = run("check", bad_jacobi, "--catalog", "g1")
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# catalog subcommand


def test_catalog_list():
    out = jout(run("catalog", "list", "--format", "json"))
    assert out["names"] == names()
    assert out["names"] == sorted(out["names"])


def test_catalog_show_verbatim():
    r = run("catalog", "show", "g2")
    assert r.returncode == 0
    assert r.stdout == source("g2")
    out = jout(run("catalog", "show", "g2", "--format", "json"))
    assert out == {"name": "g2", "source": source("g2")}


# ---------------------------------------------------------------------------
# family subcommand


def test_family_solve():
    out = jout(run("family", "solve", "--catalog", "prop31_family", "--format", "json"))
    assert out == {"name": "prop31_family", "param": "mu", "roots": ["-1", "-1/3"]}


def test_family_solve_rejects_param_flag():
    r = run(
        "family", "solve", "--catalog", "prop31_family", "--param", "mu=-1"
    )
    assert r.returncode == 2


def test_family_solve_needs_parameter():
    assert run("family", "solve", "--catalog", "g1").returncode == 2


def test_specialized_report():
    out = jout(
        run(
            "report",
            "--catalog",
            "prop31_family",
            "--param",
            "mu=-1/3",
            "--format",
            "json",
        )
    )
    assert out["S"] == "-1/6"
    assert all(c["passed"] for c in out["audit"])


def test_parametric_report_needs_value():
    assert run("report", "--catalog", "prop31_family").returncode == 2


def test_param_flag_validation():
    assert (
        run("report", "--catalog", "prop31_family", "--param", "mu").returncode == 2
    )
    assert (
        run("report", "--catalog", "prop31_family", "--param", "nu=1").returncode == 2
    )


# ---------------------------------------------------------------------------
# cohomology, flags, wqc


def test_cohomology():
    out = jout(run("cohomology", "--catalog", "heisenberg", "--format", "json"))
    assert out["betti"] == [1, 4, 11, 14, 14, 11, 4, 1]
    out = jout(
        run("cohomology", "--catalog", "heisenberg", "--k", "2", "--format", "json")
    )
    assert out["betti"] == 11
    assert run("cohomology", "--catalog", "heisenberg", "--k", "9").returncode == 2


def test_flag_verify():
    out = jout(run("flag", "verify", "--catalog", "heisenberg", "--format", "json"))
    assert out["verified"] is True
    assert run("flag", "verify", "--catalog", "g1").returncode == 2


def test_flag_verify_family_at_both_roots():
    for mu in ("-1", "-1/3"):
        out = jout(
            run(
                "flag",
                "verify",
                "--catalog",
                "prop31_family",
                "--param",
                f"mu={mu}",
                "--format",
                "json",
            )
        )
        assert out["verified"] is True


def test_flag_search(so3_r4):
    out = jout(run("flag", "search", "--catalog", "g1", "--format", "json"))
    assert out["found"] is True
    assert len(out["flag"]) == 7
    out = jout(run("flag", "search", so3_r4, "--format", "json"))
    assert out["found"] is False
    assert out["flag"] is None


def test_flag_search_large_coefficients_finishes(tmp_path):
    # ad(e1) has characteristic polynomial x (x + 1000)^3 = x^4 + ... + 10^9 x;
    # trying every divisor of 10^9 as a root took over a minute
    text = "algebra big dim 4\nd e1 = 0\nd e2 = 1000 e12\nd e3 = 1000 e13\nd e4 = 1000 e14\n"
    path = tmp_path / "big.alg"
    path.write_text(text)
    out = jout(run("flag", "search", str(path), "--format", "json", timeout=20))
    assert out["found"] is True
    flag_line = "flag = " + " | ".join(", ".join(level) for level in out["flag"])
    doc = parse(text + flag_line + "\n")
    ok, reason = verify_flag(doc.algebra, doc.flag)
    assert ok, reason


def test_wqc():
    out = jout(run("wqc", "--catalog", "g1", "--format", "json"))
    assert out["conformally_flat"] is False
    values = {tuple(s["idx"]): s["value"] for s in out["samples"]}
    assert values[(1, 2, 1, 2)] == "-1/2"
    out = jout(run("wqc", "--catalog", "heisenberg", "--format", "json"))
    assert out["conformally_flat"] is True


@pytest.mark.parametrize("name", ["g1", "g2", "heisenberg", "g2_rot"])
def test_wqc_matches_the_report_block(name, tmp_path):
    if name == "g2_rot":
        path = tmp_path / "g2_rot.alg"
        path.write_text(G2_ROTATED)
        where = [str(path)]
    else:
        where = ["--catalog", name]
    wqc = jout(run("wqc", *where, "--format", "json"))
    report = jout(run("report", *where, "--format", "json"))
    assert wqc["samples"] == report["wqc_samples"]
    assert wqc["conformally_flat"] == report["conformally_flat"]


def test_wqc_needs_qc_block(so3_r4):
    assert run("wqc", so3_r4).returncode == 2


def test_wqc_rejects_incompatible_frame(tmp_path):
    # heisenberg declared with scale 2 where d eta_r|_H = 1 * omega_r
    path = tmp_path / "heis2.alg"
    path.write_text(source("heisenberg").replace("scale 1", "scale 2"))
    r = run("report", str(path), "--format", "json")
    assert r.returncode == 1
    assert json.loads(r.stdout)["qc_valid"] is False
    r = run("wqc", str(path), "--format", "json")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "omega" in json.loads(r.stderr)["error"]["message"]


def test_duality_failure_reaches_stderr(tmp_path):
    # Lie and compatible, but d e6 gains e27 + e45, which breaks two duality conditions
    path = tmp_path / "not_bi1.alg"
    path.write_text(source("heisenberg").replace("d e6 = e13 + e42", "d e6 = e13 - e24 + e27 + e45"))
    r = run("wqc", str(path))
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == (
        "error: (xi_1 . d eta_2)|_H != -(xi_2 . d eta_1)|_H; "
        "(xi_2 . d eta_3)|_H != -(xi_3 . d eta_2)|_H\n"
    )
    r = run("report", str(path))
    assert r.returncode == 1
    assert "qc structure: true\nvertical duality conditions: false\n" in r.stdout


def test_check_rejects_omega_off_h(tmp_path):
    path = tmp_path / "off_h.alg"
    path.write_text(source("heisenberg").replace("omega1 = e12 + e34", "omega1 = e12 + e34 + e56"))
    r = run("check", str(path))
    assert r.returncode == 1
    assert "qc structure: false\n" in r.stdout


# d eta_r|_H = 0 * omega_r holds on the abelian algebra, but a zero scale is no qc structure
SCALE0 = (
    "algebra flat dim 7\n" + "".join(f"d e{k} = 0\n" for k in range(1, 8))
    + "qc horizontal 1 2 3 4 vertical 5 6 7 scale 0\nomega1 = e12 + e34\nomega2 = e13 + e42\nomega3 = e14 + e23\n"
)

# heisenberg with every d eta_r and omega_r doubled at scale 1: compatible, but
# I_r^2 = -4 id, so the omegas are no quaternionic triple
HEIS_SKEW2 = source("heisenberg").replace("algebra heisenberg", "algebra heis_skew2")
for _form in ("e12 + e34", "e13 + e42", "e14 + e23"):
    HEIS_SKEW2 = HEIS_SKEW2.replace(f"= {_form}\n", f"= 2({_form})\n")


def test_scale_zero_is_not_qc(tmp_path):
    path = tmp_path / "scale0.alg"
    path.write_text(SCALE0)
    for cmd in ("check", "report"):
        r = run(cmd, str(path))
        assert (r.returncode, r.stderr) == (1, "")
        assert "qc structure: false\n" in r.stdout
    r = run("wqc", str(path))
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: flat: d eta_r restricted to H is not 0 * omega_r\n"


def test_check_and_report_reject_a_triple_that_is_not_quaternionic(tmp_path):
    path = tmp_path / "heis_skew2.alg"
    path.write_text(HEIS_SKEW2)
    doc = parse(HEIS_SKEW2)
    assert doc.frame.omegas[0] == 2 * parse(source("heisenberg")).frame.omegas[0]
    with pytest.raises(NotQuaternionic, match=r"^I_1\^2 != -id$"):
        adapt(doc.algebra, doc.frame)
    assert adapted_shape(doc.algebra, doc.frame) is None
    for cmd in ("check", "report"):
        r = run(cmd, str(path))
        assert (r.returncode, r.stderr) == (1, "")
        assert "qc structure: false\nvertical duality conditions: n/a\n" in r.stdout
    r = run("wqc", str(path))
    assert (r.returncode, r.stdout, r.stderr) == (1, "", "error: I_1^2 != -id\n")


# every base splits horizontal 1 2 3 4 | vertical 5 6 7
VERDICT_BASES = [(source(n), ()) for n in ("heisenberg", "g1", "g2")] + [
    (source("prop31_family"), ("--param", f"mu={mu}")) for mu in ("-1", "-1/3")
] + [(text, ()) for text in (NOT_BI1, OFF_H, SCALE0, HEIS_SKEW2)]
NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


@st.composite
def verdict_documents(draw):
    """A base document, unedited or with one omega scaled, one term touching a
    vertical index added to one d e_v, or the declared scale changed."""
    text, extra = draw(st.sampled_from(VERDICT_BASES))
    edit = draw(st.sampled_from(("none", "omega", "vertical", "scale")))
    if edit == "omega":
        r = draw(st.integers(1, 3))
        text = re.sub(rf"^omega{r} = (.*)$", rf"omega{r} = ({draw(NONZERO)})(\1)", text, flags=re.M)
    elif edit == "vertical":
        v = draw(st.sampled_from((5, 6, 7)))
        a, b = draw(st.sampled_from([(a, b) for a in range(1, 8) for b in range(a + 1, 8) if b > 4]))
        text = re.sub(rf"^(d e{v} = .*)$", rf"\1 + ({draw(NONZERO)})e{a}{b}", text, flags=re.M)
    elif edit == "scale":
        text = re.sub(r"scale \S+", f"scale {draw(st.fractions(-4, 4, max_denominator=5))}", text)
    return text, extra


@settings(max_examples=80, deadline=None)
@given(verdict_documents())
def test_check_and_report_give_one_verdict(doc):
    # both commands read qc.adapt's verdict: the same qc_valid, bi1 and exit code
    text, extra = doc
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        results = [run_in_process(cmd, path, *extra, "--format", "json") for cmd in ("check", "report")]
    (check_code, check_out, check_err), (report_code, report_out, report_err) = results
    assert (check_err, report_err) == ("", "")
    assert check_code == report_code
    check, report = json.loads(check_out), json.loads(report_out)
    assert (check["qc_valid"], check["bi1"]) == (report["qc_valid"], report["bi1"])


def test_check_reads_a_form_over_a_rational(tmp_path):
    texts = {}
    for name, d5 in (("over", "e12/2 + e34"), ("times", "(1/2)e12 + e34")):
        path = tmp_path / f"{name}.alg"
        path.write_text(f"algebra t dim 5\nd e1 = 0\nd e2 = 0\nd e3 = 0\nd e4 = 0\nd e5 = {d5}\n")
        r = run("check", str(path), "--format", "json")
        assert r.returncode == 0, r.stderr
        texts[name] = r.stdout
    assert texts["over"] == texts["times"]


def test_cli_import_loads_no_heavy_package():
    # every qcalc process pays for its imports; the exact kernels need none of these
    code = "import qcalc.cli, sys; print(sorted(m for m in ('numpy', 'sympy', 'hypothesis') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_skips_dataclasses_inspect_and_typing():
    # together they cost about as much as the rest of a fresh process's imports
    code = "import qcalc.cli, sys; print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qcalc.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
