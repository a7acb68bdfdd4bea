import contextlib
import errno
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
import qcalc.report
from qcalc.catalog import names, source
from qcalc.errors import NotALieAlgebra, NotQuaternionic, NumberTooLong
from qcalc.exterior import LieAlgebra, verify_flag
from qcalc.parser import AlgebraDocument, parse, print_document
from qcalc.qc import adapt
from qcalc.scalars import replace
from oracles import adapted_shape
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
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as from a shell
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


NON_LIE = source("heisenberg").replace("heisenberg", "nonlie", 1).replace("d e7 = e14 + e23", "d e7 = e14 + e23 + e56")


@pytest.mark.parametrize("command", ["wqc", "cohomology", "flag verify", "flag search"])
def test_commands_that_need_a_lie_algebra_refuse_one_that_is_not(command, tmp_path):
    path = tmp_path / "nonlie.alg"
    path.write_text(NON_LIE)
    code, out, err = run_in_process(*command.split(), str(path))
    assert (code, out, err) == (1, "", "error: nonlie does not satisfy the Jacobi identity\n")
    with pytest.raises(NotALieAlgebra, match="^nonlie does not satisfy the Jacobi identity$"):
        qcalc.cli._require_lie(parse(NON_LIE).algebra)


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


def g1_times(factor: int) -> str:
    """g1 with every structure constant and the declared scale multiplied by factor."""
    doc = parse(source("g1"))
    g = LieAlgebra(doc.algebra.name, doc.algebra.dim, tuple(factor * f for f in doc.algebra.differentials))
    return print_document(AlgebraDocument(g, replace(doc.frame, scale=factor * doc.frame.scale)))


# the parser takes literals of up to 4300 digits, and arithmetic makes longer numbers of them:
# S and W^qc of g1 times 10^2200, and the root N^2 of a family
TOO_LONG = {
    "report": g1_times(10**2200),
    "wqc": g1_times(10**2200),
    "family solve": f"algebra f dim 4 param mu\nd e1 = 0\nd e2 = 0\nd e3 = e12\nd e4 = (mu - {'9' * 3000}^2) e34\n",
}


def assert_input_error(result, fmt, message):
    assert (result.returncode, result.stdout) == (2, "")
    if fmt == "json":
        assert json.loads(result.stderr) == {"error": {"message": message}}
    else:
        assert result.stderr == f"error: {message}\n"


def assert_too_long_to_print(result, fmt):
    assert_input_error(result, fmt, f"a number of more than {sys.get_int_max_str_digits()} digits is too long to print")


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", TOO_LONG)
def test_a_number_too_long_to_print_exits_2(command, fmt, tmp_path):
    path = tmp_path / "long.alg"
    path.write_text(TOO_LONG[command])
    assert_too_long_to_print(run(*command.split(), str(path), "--format", fmt), fmt)


def test_report_stops_at_a_number_too_long_before_the_fingerprint(monkeypatch):
    # the fingerprint of the long algebra takes seconds, so it comes after S is rendered
    doc = parse(TOO_LONG["report"])
    monkeypatch.setattr(qcalc.report, "fingerprint", lambda g: pytest.fail("fingerprint computed"))
    with pytest.raises(NumberTooLong):
        qcalc.report.build_report(doc.algebra, doc.frame)


def test_family_solve_rejects_param_flag():
    r = run(
        "family", "solve", "--catalog", "prop31_family", "--param", "mu=-1"
    )
    assert r.returncode == 2


def test_family_solve_needs_parameter():
    assert run("family", "solve", "--catalog", "g1").returncode == 2


def test_family_solve_refuses_a_parameter_spelled_like_a_monomial(tmp_path):
    # the parser reads every e12 as the monomial, so no line could use the parameter
    path = tmp_path / "odd.alg"
    path.write_text("algebra odd dim 3 param e12\nd e1 = 0\nd e2 = 0\nd e3 = e12\n")
    code, out, err = run_in_process("family", "solve", str(path))
    assert (code, out) == (2, "")
    assert "parameter 'e12' is spelled like a monomial" in err


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


# the parameter appears only in omega_1, which is compatible at mu = 0 only
PARAM_IN_OMEGA = source("heisenberg").replace(" dim 7\n", " dim 7 param mu\n").replace(
    "omega1 = e12 + e34", "omega1 = e12 + e34 + mu e13"
)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", ["check", "report", "wqc"])
def test_a_parameter_only_in_an_omega_exits_2(command, fmt, tmp_path):
    path = tmp_path / "param_in_omega.alg"
    path.write_text(PARAM_IN_OMEGA)
    message = "heisenberg is parametric; specialize it with --param mu=VALUE"
    assert_input_error(run(command, str(path), "--format", fmt), fmt, message)


def test_a_parameter_only_in_an_omega_is_specialized_or_unread(tmp_path):
    path = tmp_path / "param_in_omega.alg"
    path.write_text(PARAM_IN_OMEGA)
    r = run("check", str(path), "--param", "mu=0")
    assert (r.returncode, r.stderr) == (0, "")
    assert "qc structure: true\n" in r.stdout
    # commands that read no omega run on the bare document as on heisenberg
    for cmd in (["cohomology"], ["flag", "search"]):
        bare, catalog = run(*cmd, str(path)), run(*cmd, "--catalog", "heisenberg")
        assert bare.returncode == 0
        assert (bare.returncode, bare.stdout, bare.stderr) == (catalog.returncode, catalog.stdout, catalog.stderr)


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


# each case: the arguments, the text of the document FILE names, the exit code
FRESH_PROCESS_CASES = {
    "success": (["check", "--catalog", "g1"], None, 0),
    "failed check": (["check", "FILE"], HEIS_SKEW2, 1),
    "parse error": (["check", "FILE", "--format", "json"], "algebra a dim 2\nd e1 = e12 +\n", 2),
    "usage error": (["report", "--format", "xml"], None, 2),
    "help": (["report", "--help"], None, 0),
    "report g2": (["report", "--catalog", "g2"], None, 0),
    "catalog show g1": (["catalog", "show", "g1"], None, 0),
    # 85 KB of text, more than a 64 KiB pipe buffer holds
    "long report": (["report", "FILE"], g1_times(10**2000), 0),
}


@pytest.mark.parametrize("case", FRESH_PROCESS_CASES)
def test_a_fresh_process_writes_all_of_its_output(case, tmp_path, monkeypatch):
    # `python -m qcalc.cli` ends in os._exit or, for help and usage errors, in SystemExit
    argv, text, code = FRESH_PROCESS_CASES[case]
    if text is not None:
        path = tmp_path / "doc.alg"
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to this width
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            expected = qcalc.cli.main(argv)
        except SystemExit as e:
            expected = e.code
    r = run(*argv)
    assert (r.returncode, r.stdout, r.stderr) == (code, out.getvalue(), err.getvalue())
    assert expected == code


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("args", [("catalog", "list"), ("report", "--catalog", "g1")], ids=" ".join)
@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
def test_output_that_cannot_be_written_exits_2(sink, args, fmt):
    # with buffered stdout the write fails only when main flushes it
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "QCALC_FORMAT")}
    if sink == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        fd, code = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
    else:
        read, fd = os.pipe()
        os.close(read)
        code = errno.EPIPE
    try:
        r = subprocess.run(
            [sys.executable, "-m", "qcalc.cli", *args, "--format", fmt],
            stdout=fd, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(fd)
    message = f"[Errno {code}] {os.strerror(code)}"
    assert r.returncode == 2, r.stderr
    assert "Exception ignored" not in r.stderr
    if fmt == "json":
        assert json.loads(r.stderr) == {"error": {"message": message}}
    else:
        assert r.stderr == f"error: {message}\n"


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


# what a fresh `python -S -m qcalc.cli ARGS` process has imported when it exits
RUN_AND_LIST_MODULES = """
import os, runpy, sys
os._exit = sys.exit  # cli.run ends the process with os._exit, which would skip the print below
code = None
try:
    runpy.run_module("qcalc.cli", run_name="__main__")
except SystemExit as e:
    code = e.code
print()
print(code, *sorted(sys.modules))
"""

ARITHMETIC = {"fractions", "decimal", "numbers", "qcalc.parser", "qcalc.exterior", "qcalc.biquard"}
CONNECTION_STACK = {"qcalc.biquard", "qcalc.conformal", "qcalc.report"}


def loaded_modules(*args) -> set[str]:
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qcalc.__file__))}
    env.pop("QCALC_FORMAT", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", RUN_AND_LIST_MODULES, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0", (args, proc.stderr)
    return set(modules)


@pytest.mark.parametrize("args", [("catalog", "list"), ("catalog", "show", "g1", "--format", "json")])
def test_catalog_commands_load_no_arithmetic(args):
    loaded = loaded_modules(*args)
    assert loaded & ARITHMETIC == set()
    assert {m for m in loaded if m.startswith("qcalc")} == {"qcalc", "qcalc.catalog", "qcalc.errors"}


@pytest.mark.parametrize(
    "args",
    [
        ("check", "--catalog", "g2"),
        ("cohomology", "--catalog", "g1"),
        ("flag", "search", "--catalog", "g1"),
        ("flag", "verify", "--catalog", "heisenberg"),
        ("family", "solve", "--catalog", "prop31_family"),
    ],
    ids=" ".join,
)
def test_commands_without_a_connection_skip_its_modules(args):
    loaded = loaded_modules(*args)
    assert "qcalc.parser" in loaded
    assert loaded & CONNECTION_STACK == set()
    assert ("qcalc.family" in loaded) == (args[0] == "family")


@pytest.mark.parametrize("command", ["report", "wqc"])
def test_connection_commands_load_the_connection_stack(command):
    loaded = loaded_modules(command, "--catalog", "g2")
    assert CONNECTION_STACK <= loaded
    # the full import graph still needs none of these
    assert loaded & {"dataclasses", "inspect", "typing"} == set()


# well-formed lines go through `_read_argv`, so argparse and the gettext and locale it
# imports stay unloaded


@pytest.mark.parametrize(
    "args",
    [
        ("catalog", "list", "--format", "json"),
        ("report", "--catalog", "g2", "--format", "json"),
        ("cohomology", "FILE", "--format", "json", "--param", "mu=-1"),
        ("flag", "search", "FILE", "--format", "json", "--param", "mu=-1/3"),
        ("family", "solve", "--catalog", "prop31_family", "--format", "json"),
    ],
    ids=" ".join,
)
def test_well_formed_lines_skip_argparse(args, tmp_path):
    path = tmp_path / "prop31.alg"
    path.write_text(source("prop31_family"))
    loaded = loaded_modules(*(str(path) if a == "FILE" else a for a in args))
    assert loaded & {"argparse", "gettext", "locale"} == set()


SUBCOMMANDS = {"flag": ["verify", "search"], "family": ["solve"], "catalog": ["list", "show"]}
COMMANDS = ["check", "report", "wqc", "cohomology", *SUBCOMMANDS]
HELP_ARGVS = [[c, *s, "--help"] for c in COMMANDS for s in [[]] + [[x] for x in SUBCOMMANDS.get(c, [])]]
MISUSE_ARGVS = [
    [], ["--help"], ["bogus"], ["report", "--bogus"], ["flag", "search", "--catalog", "g1", "--bogus"],
    ["flag"], ["family"], ["catalog"], ["flag", "bogus"], ["report", "--format", "xml"],
    ["catalog", "list", "--format", "yaml"], ["cohomology", "--k", "x"], ["report", "a", "b"],
    ["cohomology", "--catalog", "g1", "--k", "3"], ["catalog", "show", "g1"],
]
PARSER = qcalc.cli._build_parser()


def parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, args = 0, vars(parse(argv))
        except SystemExit as e:
            code, args = e.code, None
    return code, out.getvalue(), err.getvalue(), args


def argparse_vars(argv: list[str]) -> dict | None:
    """vars() of argparse's parse of argv, or None where argparse exits (help or an error)."""
    return parse_outcome(PARSER.parse_args, argv)[3]


@pytest.mark.parametrize("argv", HELP_ARGVS + MISUSE_ARGVS, ids=lambda a: " ".join(a) or "-")
def test_the_per_command_parser_prints_what_the_full_parser_prints(argv):
    # the per-command parser is now the one-pass `_read_argv`: `main` reads each line with it
    # first, and with a fresh full parser where it declines
    def front_door(argv):
        return qcalc.cli._read_argv(argv) or qcalc.cli._build_parser().parse_args(argv)

    assert parse_outcome(front_door, argv) == parse_outcome(PARSER.parse_args, argv)


# each `$ qcalc ARGS` line is followed by the help argparse prints for ARGS at 80 columns
# (Python 3.11), so a changed help string or option order shows here
with open(os.path.join(os.path.dirname(__file__), "cli_help.txt"), encoding="utf-8") as fh:
    _, *pieces = re.split(r"^\$ qcalc (.*)\n", fh.read(), flags=re.M)
HELP_SCREENS = dict(zip(pieces[::2], pieces[1::2]))


@pytest.mark.parametrize("argv", [["--help"], *HELP_ARGVS], ids=" ".join)
def test_help_prints_the_recorded_screen(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert parse_outcome(qcalc.cli.main, argv) == (0, HELP_SCREENS[" ".join(argv)], "", None)


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "list"],
        ["catalog", "show", "--format", "json", "g1"],
        ["report", "--catalog", "g1", "--format", "json", "--format", "text"],
        ["check", "a.alg", "--param", "mu=-1"],
        ["cohomology", "--k", "3", "a.alg", "--catalog", ""],
        ["flag", "verify", "--catalog", "heisenberg"],
        ["family", "solve", "a.alg"],
    ],
    ids=" ".join,
)
def test_the_reader_reads_a_well_formed_line_as_argparse_does(argv):
    read = qcalc.cli._read_argv(argv)
    assert read is not None
    assert vars(read) == argparse_vars(argv)


# the command and sub-command words of every leaf, and heads argparse refuses
HEADS = [[c, *s] for c in COMMANDS for s in ([[x] for x in SUBCOMMANDS[c]] if c in SUBCOMMANDS else [[]])]
HEADS += [[], ["bogus"], ["flag"], ["catalog", "solve"], ["search"], ["report", "list"]]
OPTION_WORDS = ["--format", "--format=json", "--form", "--catalog", "--cat", "--param", "--k", "-h", "--"]
VALUE_WORDS = ["json", "text", "xml", "g1", "mu=-1", "-1", "3", "x", "", "a.alg", "dir/b c.alg"]
WELL_FORMED = [("--format", "json"), ("--format", "text"), ("--catalog", "g1"), ("--param", "mu=-1"), ("--k", "3"), ("a.alg",)]


@st.composite
def command_lines(draw) -> list[str]:
    """A head, well-formed pieces, and sometimes one more piece of any spelling."""
    pieces = draw(st.lists(st.sampled_from(WELL_FORMED), max_size=3))
    if draw(st.booleans()):
        odd = st.one_of(
            st.tuples(st.sampled_from(OPTION_WORDS), st.sampled_from(VALUE_WORDS)),
            st.tuples(st.sampled_from(OPTION_WORDS + VALUE_WORDS)),
        )
        pieces.insert(draw(st.integers(0, len(pieces))), draw(odd))
    return [*draw(st.sampled_from(HEADS)), *(word for piece in pieces for word in piece)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(command_lines(), st.sampled_from(HELP_ARGVS + MISUSE_ARGVS)))
def test_the_reader_is_argparse_or_declines(argv):
    read = qcalc.cli._read_argv(argv)
    assert read is None or vars(read) == argparse_vars(argv)
