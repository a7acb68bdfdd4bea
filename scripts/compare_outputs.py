"""Compare the qcalc parser and command line of two source trees.

Run as:  python3 scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src` directories holding the `qcalc` package; the
parent commit's tree can be had with
`git archive HEAD src | tar -x -C /tmp/parent` (then pass /tmp/parent/src).

The parse pass comes first.  Its documents are the catalog sources, the
gen.py rotations below (heights 1-3), the same rotations with a comment
after every `d` and `omega` line, so that each tree's recursive descent
reads their dense sums, and 20,000 seeded edits of the sources and the
plain rotations, each edit as tests/test_parser.py::edited_sources makes
them (one to three insertions of a grammar token after a piece of one
line, or deletions of a piece), with `+ - * = , | @ x`, a space and `#`
among the tokens: 20,028 documents.  A space inside a term and a comment
after one move a line across the edge of the parser's one-pass reading of
sums.  Each tree parses all of them in one
`python` process, and for every document the two must agree on
the `print_document` text, or on the ParseError message, line and column, or
on the type of any other exception.

Then the command line: each run is one `python -m qcalc.cli` process per
tree, with PYTHONPATH set to that tree and QCALC_FORMAT and PYTHONUNBUFFERED
unset (so stdout is block-buffered, as from a shell), and stdout, stderr and
the exit code must be identical.

Every input goes through `report`, `wqc`, `check`, `cohomology` (all degrees
and `--k 3`), `flag search`, `flag verify` and `family solve`, in JSON and in
text.  The inputs are the catalog (`prop31_family` at both roots and
unspecialized), `perfbench/gen.py` rotations of all four catalog algebras at
heights 1-3, relabelled copies (the basis permuted, the qc split moved along,
vertical sets like (1, 2, 3) and (2, 5, 7)), g2, heisenberg and
`prop31_family` declared at scale 3 and at -1/2 (the vertical covectors
multiplied to match, so the connection stage rebases them by factors other
than 2), a document that fails the vertical duality conditions, one whose
omega_1 has a term off H, one that is not a Lie algebra, two whose parameter appears only in the flag or only
in omega_1 (each bare and at mu = 0 and 1), and four small families whose
`family solve` outcomes are roots of a gcd with mu^2 terms, no root from
coprime obstructions, no root from a constant obstruction, and every value,
and three solvable algebras for the Betti numbers' choice of X: ad X with a
Jordan block, every ad e_x with irrational eigenvalues (so the whole complex
is ranked), and X found only at the last basis element, and two solvable
algebras without a flag, where `flag search` must say so: R acting with
weights 1-6 (dimension 9) or 1-4 (dimension 7) and a rotation on the last
two basis elements.
`--param` is also misused: a wrong name, a zero denominator and no `=` on
`prop31_family`, and a value for the parameter-free `heisenberg`.  Last come
the command line's own spellings, so that both the one-pass reading of a
well-formed line and argparse are reached: `--format=json`, `--cat NAME`,
options before the file, a repeated `--format`, `--k 3`, `--k=-1`, `--k -1`
and `--k x`, `--`, unknown and abbreviated options, `catalog list` and
`catalog show`, and `--help` and `-h` after every command and sub-command.
Only the standard library is used; gen.py is imported read-only.

Every document and every run is compared, and each one that differs is
printed: the document or the argv, and its first differing field.  Exits 0
when all agree and 1 when any differs.
"""

from __future__ import annotations

import json
import os
import random
import re
from fractions import Fraction
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (never imports qcalc)

COMMANDS = (
    ["report"],
    ["wqc"],
    ["check"],
    ["cohomology"],
    ["cohomology", "--k", "3"],
    ["flag", "search"],
    ["flag", "verify"],
    ["family", "solve"],
)
FORMATS = ("json", "text")
ROOTS = ("mu=-1", "mu=-1/3")
MISUSED = ("nu=-1", "mu=1/0", "mu")
HEIGHTS = (1, 2, 3)
TIMEOUT_S = 300
JOBS = 4

EDITS = 20000
EDIT_TOKENS = ("/", "^", "e0", "e102", "mu", "(", ")", "0", "1", "2", "7", "+", "-", "*", "=", ",", "|", "@", "x", " ", "#")
# a monomial's last digit is its own piece, so an edit can land inside it (e1/2)
PIECE_RE = re.compile(r"e\d(?=\d)|\w+|\S")
COMMENTED_RE = re.compile(r"^(?:d |omega).*$", re.M)

CATALOG_SOURCES = "import json; from qcalc.catalog import names, source; print(json.dumps([source(n) for n in names()]))"
PARSE_ALL = """
import json, sys
from qcalc.errors import ParseError
from qcalc.parser import parse, print_document
out = []
for text in json.load(sys.stdin):
    try:
        out.append(["printed", print_document(parse(text))])
    except ParseError as e:
        out.append(["ParseError", e.message, e.line, e.col])
    except Exception as e:
        out.append(["raised", type(e).__name__])
json.dump(out, sys.stdout)
"""

# old position -> new index, for positions 1..7; the qc split moves along
RELABELLINGS = (
    (4, 5, 6, 7, 1, 2, 3),  # vertical (1, 2, 3)
    (1, 3, 4, 6, 2, 5, 7),  # vertical (2, 5, 7)
    (7, 3, 1, 5, 6, 2, 4),  # neither block in increasing order
)

HEISENBERG = """\
algebra {name} dim 7
d e1 = 0
d e2 = 0
d e3 = 0
d e4 = 0
d e5 = e12 + e34
d e6 = {de6}
d e7 = e14 + e23
qc horizontal 1 2 3 4 vertical 5 6 7 scale 1
omega1 = {omega1}
omega2 = e13 + e42
omega3 = e14 + e23
"""

SPECIAL = {
    # Lie and compatible, but (xi_1 . d eta_2)|_H and (xi_2 . d eta_3)|_H fail duality
    "not_bi1": HEISENBERG.format(name="not_bi1", de6="e13 - e24 + e27 + e45", omega1="e12 + e34"),
    # omega_1 has a term off H, so d eta_1|_H != omega_1
    "off_h": HEISENBERG.format(name="off_h", de6="e13 + e42", omega1="e12 + e34 + e56"),
    "nonlie": HEISENBERG.format(name="nonlie", de6="e13 + e42", omega1="e12 + e34").replace(
        "d e7 = e14 + e23", "d e7 = e14 + e23 + e56"
    ),
}

# declared at each scale with the vertical covectors multiplied to match
DECLARED = ("g2", "heisenberg", "prop31_family")
DECLARED_SCALES = (Fraction(3), Fraction(-1, 2))

# the parameter appears only in the flag (V^3 is invariant at mu = 0 only) or only in omega_1
# (compatible at mu = 0 only); each runs bare and under PROBES
PROBES = ("mu=0", "mu=1")
PARAM_ONLY = {
    "param_in_flag": HEISENBERG.format(name="param_in_flag", de6="e13 + e42", omega1="e12 + e34")
    + "flag = e1 | e1, e2 | e1, e2, e3 + mu e5 | e1, e2, e3, e4 | e1, e2, e3, e4, e5"
    " | e1, e2, e3, e4, e5, e6 | e1, e2, e3, e4, e5, e6, e7\n",
    "param_in_omega": HEISENBERG.format(name="param_in_omega", de6="e13 + e42", omega1="e12 + e34 + mu e13"),
}


# d(e^k) for the Betti numbers' weight-zero subcomplex, which takes X from the first basis
# element whose ad has rational eigenvalues, not all 0
WEIGHTED = {
    # [e1, e3] = e3 + e2: a Jordan block in ad e1, so generalized eigenvectors are needed
    "jordan": "d e1 = 0\nd e2 = -e12 - e13\nd e3 = -e13\nd e4 = e14\nd e5 = e15\nd e6 = 2e16 - e45\nd e7 = -3e17\n",
    # ad e1 has eigenvalues +-sqrt(2), +-sqrt(3) and every other ad e_x is nilpotent: no X
    "irrational": "d e1 = 0\nd e2 = -2e13\nd e3 = -e12\nd e4 = -3e15\nd e5 = -e14\nd e6 = -e45\nd e7 = 0\n",
    # ad e1 .. ad e6 are nilpotent; X = e7
    "later_x": "d e1 = e17\nd e2 = e27\nd e3 = -e12 + 2e37\nd e4 = -e47\nd e5 = -e57\nd e6 = -e14\nd e7 = 0\n",
}

# R x| R^8 and R x| R^6: weights 1..6 or 1..4 on e2.., a rotation on the last two, so no
# chain of ideals; a search that backtracks over the weights tries every order of them
FLAGLESS = {
    "flagless9": "dim 9\nd e1 = 0\n" + "".join(f"d e{k} = -{k - 1} e1{k}\n" for k in range(2, 8))
    + "d e8 = e19\nd e9 = -e18\n",
    "flagless7": "dim 7\nd e1 = 0\n" + "".join(f"d e{k} = -{k - 1} e1{k}\n" for k in range(2, 6))
    + "d e6 = e17\nd e7 = -e16\n",
}

# d e^k not listed are 0; with d e3 = e12 and d e5 = p e12, d(e35) = e125 - p e123
FAMILIES = {
    # mu^2 coefficients: d(d e4) = (mu^2 - 1)(e125 - (mu + 1) e123), so mu in {-1, 1}
    "mu_squared": dict(dim=5, e3="e12", e4="(mu^2 - 1)e35", e5="(mu + 1)e12"),
    # d(d e4) = mu (e125 - e123) and d(d e6) = (mu - 1)(e125 - e123): no common root
    "coprime": dict(dim=6, e3="e12", e4="mu e35", e5="e12", e6="(mu - 1)e35"),
    # d(d e4) = e125 - e123 for every mu: no value
    "constant": dict(dim=5, e3="e12", e4="e35", e5="e12 + mu e13"),
    # d^2 = 0 identically: every value
    "unobstructed": dict(dim=3, e3="mu e12"),
}


def family_text(name: str, dim: int, **diffs: str) -> str:
    lines = [f"algebra {name} dim {dim} param mu"]
    lines += [f"d e{k} = {diffs.get(f'e{k}', '0')}" for k in range(1, dim + 1)]
    return "\n".join(lines) + "\n"


def relabelled_text(name: str, eqs, scale, perm, parametric: bool) -> str:
    """The .alg text of the algebra in the basis e'_{perm[i-1]} = e_i."""

    def move(terms):
        out = {}
        for (j, k), (c0, c1) in terms.items():
            a, b = perm[j - 1], perm[k - 1]
            out[(a, b) if a < b else (b, a)] = (c0, c1) if a < b else (-c0, -c1)
        return out

    new = {perm[i - 1]: move(eqs[i]) for i in range(1, gen.DIM + 1)}
    h = [perm[i - 1] for i in gen.HORIZONTAL]
    v = [perm[i - 1] for i in gen.VERTICAL]
    lines = [f"algebra {name} dim {gen.DIM}" + (f" param {gen.PARAM}" if parametric else "")]
    lines += [f"d e{i} = {gen.form_text(new[i])}" for i in range(1, gen.DIM + 1)]
    lines.append(f"qc horizontal {' '.join(map(str, h))} vertical {' '.join(map(str, v))} scale {scale}")
    for r, x in enumerate(v, 1):
        omega = {key: (c0 / scale, c1 / scale) for key, (c0, c1) in new[x].items() if set(key) <= set(h)}
        lines.append(f"omega{r} = {gen.form_text(omega)}")
    return "\n".join(lines) + "\n"


def declared_at(eqs, scale: Fraction, target: Fraction):
    """The equations in the coframe c e^v, c = target / scale on each vertical v:
    the coefficient of e^ij in d e^k picks up c_k / (c_i c_j)."""
    c = {i: target / scale if i in gen.VERTICAL else Fraction(1) for i in range(1, gen.DIM + 1)}
    return {
        k: {(i, j): (c0 * c[k] / (c[i] * c[j]), c1 * c[k] / (c[i] * c[j])) for (i, j), (c0, c1) in terms.items()}
        for k, terms in eqs.items()
    }


def documents() -> dict[str, tuple[str, list]]:
    """name -> (.alg text, --param values, None for none) for every generated input."""
    docs = {}
    for source in gen.SOURCES:
        parametric = source == "prop31_family"
        params = [None, *ROOTS] if parametric else [None]
        for h in HEIGHTS:
            name = f"{source}_rot_h{h}"
            docs[name] = (gen.rotated_input(random.Random(f"{source}:{h}"), source, h, name)[0], params)
        scale, eqs = gen.source_equations(source)
        for t, perm in enumerate(RELABELLINGS):
            docs[f"{source}_relabel{t}"] = (relabelled_text(source, eqs, scale, perm, parametric), params)
        if source in DECLARED:
            for t, target in enumerate(DECLARED_SCALES):
                name = f"{source}_scale{t}"
                docs[name] = (gen.alg_text(name, declared_at(eqs, scale, target), target, parametric), params)
    scale, eqs = gen.source_equations("g2")
    rotated = gen.change_coframe(eqs, gen.block_matrix(*gen.random_rotation(random.Random(3), 1)))
    for t, perm in enumerate(RELABELLINGS):
        docs[f"g2_rot_relabel{t}"] = (relabelled_text("g2_rot", rotated, scale, perm, False), [None])
    for name, text in SPECIAL.items():
        docs[name] = (text, [None])
    for name, text in PARAM_ONLY.items():
        docs[name] = (text.replace(" dim 7\n", " dim 7 param mu\n", 1), [None, *PROBES])
    for name, diffs in FAMILIES.items():
        docs[f"family_{name}"] = (family_text(name, **diffs), [None])
    for name, body in WEIGHTED.items():
        docs[f"weighted_{name}"] = (f"algebra {name} dim 7\n{body}", [None])
    for name, body in FLAGLESS.items():
        docs[name] = (f"algebra {name} {body}", [None])
    return docs


def edited(rng: random.Random, text: str) -> str:
    """One to three edits on one line of text, as edited_sources makes them."""
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    for _ in range(rng.randint(1, 3)):
        start, end = rng.choice([m.span() for m in PIECE_RE.finditer(lines[k])] or [(0, 0)])
        if rng.random() < 0.5:
            lines[k] = lines[k][:end] + rng.choice(EDIT_TOKENS) + lines[k][end:]
        else:
            lines[k] = lines[k][:start] + lines[k][end:]
    return "\n".join(lines)


def python(src: str, code: str, stdin: str = "") -> str:
    """stdout of `python -c code` with PYTHONPATH set to src; exits 1 with its
    stderr when the process fails."""
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        sys.exit(f"{src}: {done.stderr}")
    return done.stdout


def parse_pass(trees: list[str]) -> int:
    """The parse pass: prints each document the trees disagree on; 0 when
    they agree on every one, else 1."""
    rotations = [text for name, (text, _) in documents().items() if "_rot_h" in name]
    bases = json.loads(python(trees[0], CATALOG_SOURCES)) + rotations
    commented = [COMMENTED_RE.sub(r"\g<0>  # dense", text) for text in rotations]
    rng = random.Random("parse pass")
    docs = bases + commented + [edited(rng, rng.choice(bases)) for _ in range(EDITS)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        old, new = pool.map(lambda tree: json.loads(python(tree, PARSE_ALL, json.dumps(docs))), trees)
    differ = 0
    for text, a, b in zip(docs, old, new):
        if a != b:
            differ += 1
            print(f"parse of:\n{text}\n  old: {a}\n  new: {b}")
    if differ:
        print(f"{differ} of {len(docs)} documents parse differently")
        return 1
    print(f"{len(docs)} documents, parse results identical")
    return 0


# every command and sub-command, for --help and -h
HEADS = (
    [], ["check"], ["report"], ["wqc"], ["cohomology"], ["flag"], ["flag", "verify"], ["flag", "search"],
    ["family"], ["family", "solve"], ["catalog"], ["catalog", "list"], ["catalog", "show"],
)


def spellings(path: str) -> list[list[str]]:
    """Command lines that spell options the ways the one-pass reader or only argparse takes, or misuse them."""
    out = [
        ["report", "--format=json", "--catalog", "g1"],
        ["report", "--cat", "g1", "--format", "json"],
        ["report", "--catalog", "g1", "--form", "json"],
        ["report", "--format", "json", "--catalog", "g1", "--format", "text"],
        ["check", "--format", "json", "--param", "mu=-1", path],
        ["wqc", "--format", "text", path, "--format", "json"],
        ["cohomology", "--format", "json", "--k", "3", path],
        ["cohomology", path, "--k=-1"],
        ["cohomology", path, "--k", "-1"],
        ["cohomology", path, "--k", "x"],
        ["cohomology", "--k", "3", "--catalog", "g1", "--k", "2"],
        ["flag", "search", "--", path],
        ["flag", "verify", "--catalog", "heisenberg", "--format", "xml"],
        ["family", "solve", "--catalog", "prop31_family", "--param"],
        ["family", "solve", "--bogus", path],
        ["report", path, path],
        ["report", "--catalog", ""],
        ["catalog", "list"],
        ["catalog", "list", "--format", "json"],
        ["catalog", "list", "g1"],
        ["catalog", "show", "g1"],
        ["catalog", "show", "--format", "json", "g1"],
        ["catalog", "show", "nope", "--format", "json"],
        ["catalog", "show"],
        ["bogus"],
    ]
    return out + [[*head, flag] for head in HEADS for flag in ("--help", "-h")]


def argvs(workdir: Path) -> list[list[str]]:
    inputs = []  # (where, param variants)
    for source in gen.SOURCES:
        params = {"prop31_family": [None, *ROOTS, *MISUSED], "heisenberg": [None, "mu=-1"]}.get(source, [None])
        inputs.append((["--catalog", source], params))
    for name, (text, params) in documents().items():
        path = workdir / f"{name}.alg"
        path.write_text(text, encoding="utf-8")
        inputs.append(([str(path)], params))
    out = []
    for where, params in inputs:
        for param in params:
            extra = ["--param", param] if param else []
            for cmd in COMMANDS:
                for fmt in FORMATS:
                    out.append([*cmd, *where, *extra, "--format", fmt])
    return out + spellings(str(workdir / "prop31_family_rot_h1.alg"))


def run(src: str, argv: list[str], cwd: Path) -> tuple:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "QCALC_FORMAT")}
    env["PYTHONPATH"] = src
    try:
        done = subprocess.run(
            [sys.executable, "-m", "qcalc.cli", *argv],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return ("timeout", "", "")
    return (done.returncode, done.stdout, done.stderr)


def first_difference(old: tuple, new: tuple) -> str | None:
    for field, a, b in zip(("exit code", "stdout", "stderr"), old, new):
        if a == b:
            continue
        if field == "exit code":
            return f"exit code: {a} != {b}"
        la, lb = str(a).splitlines(), str(b).splitlines()
        for n, (x, y) in enumerate(zip(la + [""] * len(lb), lb + [""] * len(la)), 1):
            if x != y:
                return f"{field}, line {n}:\n  old: {x}\n  new: {y}"
        return f"{field}: trailing whitespace differs"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = [str(Path(a).resolve()) for a in argv]
    for tree in trees:
        if not (Path(tree) / "qcalc" / "cli.py").is_file():
            print(f"{tree} holds no qcalc package", file=sys.stderr)
            return 2
    status = parse_pass(trees)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        runs = argvs(workdir)

        def both(args: list[str]) -> str | None:
            return first_difference(run(trees[0], args, workdir), run(trees[1], args, workdir))

        differ = 0
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for args, diff in zip(runs, pool.map(both, runs)):
                if diff is not None:
                    differ += 1
                    print("qcalc " + " ".join(args))
                    print(diff)
    if differ:
        print(f"{differ} of {len(runs)} runs differ")
        return 1
    print(f"{len(runs)} runs, stdout, stderr and exit code identical")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
