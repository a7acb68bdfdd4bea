"""Operation lists of the three workloads and the check each output must pass.

An operation is one `qcalc` invocation.  A cycle is one pass over a
workload's mix of operations; the benchmark runs whole cycles.

* `catalog`: the shipped entries through `--catalog`, as users run them
  today; the seed only sets the order of the cycle.
* `rotated`: `report` on catalog algebras carried to a seeded orthonormal
  coframe of height h in {1, 2}.
* `flags`: `flag search`, `cohomology` and `family solve` on rotated inputs
  with h in {1, 3}, across the root-finding cliff.  At h = 3 the flag search
  runs on one of g1 and g2 per cycle, in turn, since each of those hangs
  until the deadline.

Expected values come from `expected.json`, recorded from the catalog
operations by `record.py`.  Rotated inputs are checked against the values of
the algebra they were rotated from.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"
WORKLOADS = ("catalog", "rotated", "flags")
ROTATED_HEIGHTS = (1, 2)
# h = 1 stays below the root-finding cliff; at h = 3 the flag search on g1
# and g2 no longer finishes (ROADMAP item 5), while at h = 2 a few percent
# of draws still do, which would make the share of timeouts depend on the seed.
FLAG_HEIGHTS = (1, 3)
# Above the cliff, the flag search on these hangs; a cycle runs one of them.
HANGING = ("g1", "g2")
FAMILY_VALUES = ("mu=-1", "mu=-1/3")
# Cycles generated per run; a run that gets through more starts over.
CYCLES = 8

# Report fields that a change of orthonormal coframe leaves unchanged.
INVARIANT_FIELDS = (
    "jacobi",
    "qc_valid",
    "bi1",
    "S",
    "torsion_nonzero",
    "dOmega_zero",
    "vertical_integrable",
    "conformally_flat",
    "fingerprint",
)


@dataclass(frozen=True)
class Op:
    kind: str  # report, wqc, check, cohomology, flag_verify, flag_search, family_solve
    source: str  # the catalog algebra the input is, or was rotated from
    param: str | None = None  # NAME=VALUE passed as --param
    input: str | None = None  # generated input name; None means --catalog

    def argv(self, manifest: dict) -> list[str]:
        """qcalc arguments, ending in --format json."""
        where = ["--catalog", self.source] if self.input is None else [manifest[self.input]["file"]]
        extra = ["--param", self.param] if self.param else []
        return [*self.kind.split("_"), *where, *extra, "--format", "json"]

    def source_key(self) -> str:
        """Key in expected.json: this operation on the catalog algebra it comes from."""
        return " ".join(Op(self.kind, self.source, self.param).argv({})[:-2])


CATALOG_OPS = (
    Op("report", "heisenberg"),
    Op("report", "g1"),
    Op("report", "g2"),
    *(Op("report", "prop31_family", p) for p in FAMILY_VALUES),
    Op("wqc", "g1"),
    Op("wqc", "g2"),
    *(Op("check", s) for s in ("heisenberg", "g1", "g2")),
    *(Op("cohomology", s) for s in ("heisenberg", "g1", "g2")),
    Op("flag_verify", "heisenberg"),
    *(Op("flag_verify", "prop31_family", p) for p in FAMILY_VALUES),
    *(Op("flag_search", s) for s in ("heisenberg", "g1", "g2")),
    Op("family_solve", "prop31_family"),
)


def _rotated_plan() -> list[tuple[str, int, str | None]]:
    plan = []
    for h in ROTATED_HEIGHTS:
        plan += [("heisenberg", h, None), ("g1", h, None), ("g2", h, None)]
        plan += [("prop31_family", h, p) for p in FAMILY_VALUES]
    return plan


def _flags_plan() -> list[tuple[str, int, str | None]]:
    return [(s, h, None) for h in FLAG_HEIGHTS for s in ("heisenberg", "g1", "g2", "prop31_family")]


def build(workload: str, seed: int, workdir: Path) -> tuple[list[list[Op]], dict]:
    """(CYCLES operation cycles, input manifest) for a workload and seed.

    Every cycle has the same mix of operations, but for which of HANGING
    the `flags` cycle searches above the cliff; on generated inputs each
    cycle gets rotations of its own, so that a run averages over several
    draws instead of hinging on one.
    """
    rng = random.Random(f"{workload}:{seed}")
    cycles = []
    if workload == "catalog":
        for _ in range(CYCLES):
            ops = list(CATALOG_OPS)
            rng.shuffle(ops)
            cycles.append(ops)
        return cycles, {}
    plan = _rotated_plan() if workload == "rotated" else _flags_plan()
    manifest = gen.generate(rng.randrange(2**32), [(s, h) for s, h, _ in plan] * CYCLES, workdir)
    names = list(manifest)
    for c in range(CYCLES):
        ops = []
        for name, (source, h, param) in zip(names[c * len(plan):], plan):
            if workload == "rotated":
                ops.append(Op("report", source, param, name))
            elif source == "prop31_family":
                ops.append(Op("family_solve", source, None, name))
            else:
                if h < FLAG_HEIGHTS[-1] or source not in HANGING or source == HANGING[c % 2]:
                    ops.append(Op("flag_search", source, None, name))
                ops.append(Op("cohomology", source, None, name))
        rng.shuffle(ops)
        cycles.append(ops)
    return cycles, manifest


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# checks


def check(op: Op, rc: int, stdout: str, expected: dict, manifest: dict) -> str | None:
    """None when the output is right, otherwise the reason it is not."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"exit {rc}, output is not JSON"
    if op.input is None:
        return _check_catalog(op, rc, out, expected)
    if rc != 0:
        return f"exit {rc}"
    entry = manifest[op.input]
    if op.kind == "report":
        return _check_rotated_report(out, expected[op.source_key()], entry)
    if op.kind == "flag_search":
        return _check_flag_search(out, expected[op.source_key()], _input_equations(entry))
    if op.kind == "cohomology":
        ok = out.get("betti") == expected[op.source_key()]["out"]["betti"]
        return None if ok else "Betti numbers differ from the source algebra"
    if op.kind == "family_solve":
        ok = out.get("roots") == expected[op.source_key()]["out"]["roots"]
        return None if ok else f"roots {out.get('roots')}"
    raise ValueError(f"no check for {op.kind} on generated inputs")


def _audit_passes(report: dict) -> bool:
    audit = report.get("audit")
    return bool(audit) and all(c.get("passed") is True for c in audit)


def _check_catalog(op: Op, rc: int, out: dict, expected: dict) -> str | None:
    want = expected[op.source_key()]
    if rc != want["rc"]:
        return f"exit {rc}, expected {want['rc']}"
    if op.kind == "flag_search":
        return _check_flag_search(out, want, gen.source_equations(op.source)[1])
    if op.kind == "report":
        # Audit entries may be added later; each must pass, the rest must match.
        if {**out, "audit": None} != {**want["out"], "audit": None}:
            return "report differs from the recorded one"
        return None if _audit_passes(out) else "an audit entry fails"
    return None if out == want["out"] else "output differs from the recorded one"


def _check_rotated_report(out: dict, want: dict, entry: dict) -> str | None:
    src = want["out"]
    for field in INVARIANT_FIELDS:
        if out.get(field) != src[field]:
            return f"{field} differs from the source algebra"
    a_h = [[Fraction(x) for x in row] for row in entry["A_H"]]
    t0 = [[Fraction(x) for x in row] for row in src["T0"]]
    law = [
        [str(sum(a_h[i][k] * t0[k][l] * a_h[j][l] for k in range(4) for l in range(4))) for j in range(4)]
        for i in range(4)
    ]
    if out.get("T0") != law:
        return "T0 is not A_H T0 A_H^T"
    return None if _audit_passes(out) else "an audit entry fails"


def _input_equations(entry: dict):
    a_h = [[Fraction(x) for x in row] for row in entry["A_H"]]
    a_v = [[Fraction(x) for x in row] for row in entry["A_V"]]
    return gen.change_coframe(gen.source_equations(entry["source"])[1], gen.block_matrix(a_h, a_v))


def _check_flag_search(out: dict, want: dict, eqs) -> str | None:
    if out.get("found") != want["out"]["found"]:
        return "found differs from the source algebra"
    if not out["found"]:
        return None
    try:
        levels = [[parse_covector(t) for t in level] for level in out["flag"]]
    except ValueError as e:
        return str(e)
    return verify_flag(eqs, levels)


_TERM_RE = re.compile(r"([+-]?)(?:\((\d+(?:/\d+)?)\)|(\d+))?e(\d)")


def parse_covector(text: str) -> list[Fraction]:
    """Coordinates of a printed 1-form such as `6e2 - (1/3)e5`."""
    s = text.replace(" ", "")
    row = [Fraction(0)] * gen.DIM
    pos = 0
    for m in _TERM_RE.finditer(s):
        if m.start() != pos or (pos and not m.group(1)):
            break
        c = Fraction(m.group(2) or m.group(3) or 1)
        row[int(m.group(4)) - 1] += -c if m.group(1) == "-" else c
        pos = m.end()
    if pos != len(s) or not s:
        raise ValueError(f"cannot read covector {text!r}")
    return row


def rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][col] / m[r][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


PAIRS = [(b, c) for b in range(1, gen.DIM + 1) for c in range(b + 1, gen.DIM + 1)]


def verify_flag(eqs, levels: list[list[list[Fraction]]]) -> str | None:
    """Check that V^1 < ... < V^n with dim V^i = i and d V^i inside Lambda^2 V^i.

    `eqs` are constant structure equations as produced by `gen`; this is an
    independent re-implementation of the flag condition.
    """
    n = gen.DIM
    if len(levels) != n:
        return f"flag has {len(levels)} levels"
    for i, rows in enumerate(levels, start=1):
        if len(rows) != i or rank(rows) != i:
            return f"level {i} does not have dimension {i}"
        if i < n and rank(levels[i] + rows) != i + 1:
            return f"level {i} is not inside level {i + 1}"
        wedges = [
            [u[b - 1] * v[c - 1] - u[c - 1] * v[b - 1] for b, c in PAIRS]
            for s, u in enumerate(rows)
            for v in rows[s + 1:]
        ]
        base = rank(wedges) if wedges else 0
        for t, alpha in enumerate(rows, start=1):
            d_alpha = [
                sum((alpha[j - 1] * eqs[j].get(p, gen.ZERO)[0] for j in range(1, n + 1)), Fraction(0))
                for p in PAIRS
            ]
            if any(d_alpha) and rank(wedges + [d_alpha]) != base:
                return f"d of covector {t} in level {i} leaves Lambda^2 V^{i}"
    return None
