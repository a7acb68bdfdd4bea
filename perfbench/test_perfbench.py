"""Tests of the benchmark itself: generator, checks and span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def det(m) -> Fraction:
    m = [list(r) for r in m]
    n, out = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def d_squared(eqs, mu: Fraction) -> dict:
    """Nonzero coefficients of d(d e_i), computed from the structure constants."""
    de = {i: {k: c0 + c1 * mu for k, (c0, c1) in row.items()} for i, row in eqs.items()}
    out = {}
    for i, row in de.items():
        acc: dict[tuple[int, int, int], Fraction] = {}
        for (j, k), c in row.items():
            # d(e_j ^ e_k) = de_j ^ e_k - e_j ^ de_k
            for (a, b), x in de[j].items():
                _add_wedge(acc, (a, b, k), c * x)
            for (a, b), x in de[k].items():
                _add_wedge(acc, (j, a, b), -c * x)
        nz = {t: v for t, v in acc.items() if v}
        if nz:
            out[i] = nz
    return out


def _add_wedge(acc, idx, c) -> None:
    if len(set(idx)) < 3:
        return
    sign, lst = 1, list(idx)
    for x in range(3):
        for y in range(2 - x):
            if lst[y] > lst[y + 1]:
                lst[y], lst[y + 1] = lst[y + 1], lst[y]
                sign = -sign
    key = tuple(lst)
    acc[key] = acc.get(key, Fraction(0)) + sign * c


@pytest.mark.parametrize("h", [1, 2, 3])
def test_rotation_blocks_are_special_orthogonal(h):
    rng = random.Random(h)
    for _ in range(5):
        a_h, a_v = gen.random_rotation(rng, h)
        for m in (a_h, a_v):
            n = len(m)
            gram = [[sum(m[k][i] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            assert gram == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            assert det(m) == 1


@pytest.mark.parametrize("source", sorted(gen.SOURCES))
def test_rotated_structure_constants_satisfy_jacobi(source):
    scale, eqs = gen.source_equations(source)
    rng = random.Random(source)
    a = gen.block_matrix(*gen.random_rotation(rng, 2))
    new = gen.change_coframe(eqs, a)
    values = [Fraction(-1), Fraction(-1, 3)] if source == "prop31_family" else [Fraction(0)]
    for mu in values:
        assert d_squared(eqs, mu) == {}
        assert d_squared(new, mu) == {}
    if source == "prop31_family":
        assert d_squared(new, Fraction(1)) != {}
    # the omegas stay the horizontal part of d eta over the scale
    for v, om in zip(gen.VERTICAL, gen.omegas(new, scale)):
        horiz = {k: c0 for k, (c0, _) in new[v].items() if set(k) <= set(gen.HORIZONTAL)}
        assert {k: c * scale for k, c in om.items()} == horiz


def test_identity_rotation_reproduces_the_catalog_equations():
    ident = [[Fraction(int(i == j)) for j in range(gen.DIM)] for i in range(gen.DIM)]
    for source in gen.SOURCES:
        _, eqs = gen.source_equations(source)
        assert gen.change_coframe(eqs, ident) == {i: row for i, row in eqs.items()}


@pytest.mark.parametrize("workload", ["rotated", "flags"])
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    def files(seed, sub):
        cycles, manifest = workloads.build(workload, seed, tmp_path / sub)
        ops = [(o.kind, o.source, o.param, o.input) for c in cycles for o in c]
        return ops, {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    ops_a, a = files(7, "a")
    ops_b, b = files(7, "b")
    _, c = files(8, "c")
    assert ops_a == ops_b
    assert a == b
    assert a != c


def test_cycles_share_one_mix_of_operations(tmp_path):
    for workload in workloads.WORKLOADS:
        cycles, manifest = workloads.build(workload, 5, tmp_path / workload)
        assert len(cycles) == workloads.CYCLES
        mixes = [sorted((o.kind, o.source, o.param or "") for o in c) for c in cycles]
        period = 2 if workload == "flags" else 1  # flags alternates its hanging search
        assert all(mix == mixes[n % period] for n, mix in enumerate(mixes))
        inputs = [o.input for c in cycles for o in c if o.input]
        assert len(set(inputs)) == len(manifest)


def test_flags_cycles_take_turns_at_the_hanging_search(tmp_path):
    cycles, manifest = workloads.build("flags", 5, tmp_path)
    for n, cycle in enumerate(cycles):
        high = [o.source for o in cycle if o.kind == "flag_search" and manifest[o.input]["h"] == 3]
        assert sorted(high) == sorted(["heisenberg", workloads.HANGING[n % 2]])
        assert len(cycle) == 13


def test_points_have_exact_height():
    rng = random.Random(0)
    for h in (1, 2, 3):
        for _ in range(20):
            u = gen._point(rng, h)
            assert any(u) and gen.point_height(u) == h


# ---------------------------------------------------------------------------
# checks


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


def test_catalog_report_check_catches_a_flipped_sign(expected):
    op = workloads.Op("report", "g1")
    good = expected[op.source_key()]["out"]
    assert workloads.check(op, 0, json.dumps(good), expected, {}) is None
    bad = copy.deepcopy(good)
    bad["S"] = bad["S"].lstrip("-") if bad["S"].startswith("-") else "-" + bad["S"]
    assert workloads.check(op, 0, json.dumps(bad), expected, {}) is not None
    bad = copy.deepcopy(good)
    bad["audit"][0]["passed"] = False
    assert workloads.check(op, 0, json.dumps(bad), expected, {}) is not None
    assert workloads.check(op, 1, json.dumps(good), expected, {}) is not None
    assert workloads.check(op, 0, "not json", expected, {}) is not None


def _rotated_case(expected, source="g2"):
    rng = random.Random(11)
    text, entry = gen.rotated_input(rng, source, 1, "rot_case")
    op = workloads.Op("report", source, None, "rot_case")
    src = expected[op.source_key()]["out"]
    a_h = [[Fraction(x) for x in row] for row in entry["A_H"]]
    t0 = [[Fraction(x) for x in row] for row in src["T0"]]
    out = dict(src, name="rot_case")
    out["T0"] = [
        [str(sum(a_h[i][k] * t0[k][l] * a_h[j][l] for k in range(4) for l in range(4))) for j in range(4)]
        for i in range(4)
    ]
    return op, out, {"rot_case": entry}


def test_rotated_report_check(expected):
    op, out, manifest = _rotated_case(expected)
    assert workloads.check(op, 0, json.dumps(out), expected, manifest) is None
    flipped = dict(out, S="1/6")
    assert workloads.check(op, 0, json.dumps(flipped), expected, manifest) == "S differs from the source algebra"
    wrong_t0 = copy.deepcopy(out)
    wrong_t0["T0"][0][1] = "7"
    assert workloads.check(op, 0, json.dumps(wrong_t0), expected, manifest) == "T0 is not A_H T0 A_H^T"


def test_flag_check_accepts_the_recorded_flag_and_rejects_a_changed_one(expected):
    op = workloads.Op("flag_search", "g2")
    good = expected[op.source_key()]["out"]
    assert workloads.check(op, 0, json.dumps(good), expected, {}) is None
    bad = copy.deepcopy(good)
    bad["flag"][0] = ["e2"]
    assert workloads.check(op, 0, json.dumps(bad), expected, {}) is not None
    bad = dict(good, found=False, flag=None)
    assert workloads.check(op, 0, json.dumps(bad), expected, {}) is not None


def test_parse_covector():
    assert workloads.parse_covector("6e2 + e5") == [0, 6, 0, 0, 1, 0, 0]
    assert workloads.parse_covector("-(1/3)e1 - 2e7") == [Fraction(-1, 3), 0, 0, 0, 0, 0, -2]
    for bad in ("", "e2 e5", "2", "e2 + x"):
        with pytest.raises(ValueError):
            workloads.parse_covector(bad)


def test_timeout_fails_without_counting_as_wrong(expected):
    op = workloads.Op("report", "g1")
    good = json.dumps(expected[op.source_key()]["out"])
    results = [(0.1, 0, good), (4.0, None, "")]
    reasons = run.verdicts([op, op], results, expected, {})
    assert reasons == [None, "timeout"]
    assert run.summary([op, op], results, reasons) == (2, 1, 0)


def test_tail_percentile_keeps_ten_samples_above():
    xs = [float(x) for x in range(1, 21)]
    assert run.tail(xs) == (pytest.approx(10.5), 50.0)
    assert run.tail(xs[:5]) == (5.0, 100.0)
    value, pct = run.tail([float(x) for x in range(1, 43)])
    assert pct == pytest.approx(100 * 32 / 42)
    assert 31 < value < 33


def test_clock_states_times_at_the_reference_speed(monkeypatch):
    ref = run.CALIBRATION_REF_S
    readings = iter([ref, 3 * ref, 2 * ref])
    monkeypatch.setattr(run, "calibrate", lambda: next(readings))
    clock = run.Clock()
    # calibrations before and after average 2 * ref: the machine ran at half speed
    assert clock.scale(1.0) == pytest.approx(0.5)
    assert clock.scale(1.0) == pytest.approx(0.4)
    assert clock.raw == [1.0, 1.0]


def test_harrell_davis_quantile():
    assert run.quantile([4.0] * 9, 0.3) == pytest.approx(4.0)
    # symmetric samples: the median estimate is their centre
    assert run.quantile([1.0, 2.0, 4.0, 6.0, 7.0], 0.5) == pytest.approx(4.0)
    # Beta-weighted mean of order statistics, cross-checked with an
    # independent incomplete-beta implementation
    xs = [0.7, 1.1, 1.3, 2.0, 2.2, 2.9, 3.5, 5.0, 8.0, 9.5, 10.0, 12.0]
    assert run.quantile(xs, 0.5) == pytest.approx(3.759852, rel=1e-4)
    assert run.quantile(xs, 0.75) == pytest.approx(8.204003, rel=1e-4)


# ---------------------------------------------------------------------------
# tracing


def test_self_times_on_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == {"a": (3.0, 1), "b": (6.0, 2), "c": (1.0, 1)}


def test_tracer_records_parents_and_closes_interrupted_spans():
    t = tracing.Tracer()

    def inner():
        return 1

    inner_t = t.wrap("inner", inner)
    outer_t = t.wrap("outer", lambda: inner_t() + inner_t())
    assert outer_t() == 2
    assert [(s[0], s[3]) for s in t.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    t.spans.append(["open", 1.0, None, -1])
    t.stack.append(len(t.spans) - 1)
    t.close_open(2.0)
    assert t.spans[-1][2] == 2.0 and t.stack == []


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [f"{s}.{k}" for s in tracing.SPANS for k in ("self_ms", "calls")]
    per_layer += [f"{s}.nonzero" for s in tracing.SIZES]
    per_layer += ["scalars.rational_roots.timeouts", "trace.overhead_frac"]
    per_layer += ["input.nnz", "input.height_bits", "input.h_ge2_share"]
    assert [m["name"] for m in bench["per_layer"]] == per_layer
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "latency_ms_p50", "latency_ms_tail", "ops_per_s", "pass_frac", "child_maxrss_mb",
    }


def test_generated_inputs_pass_their_checks_in_qcalc(tmp_path, expected):
    """One rotated report, cohomology and family solve, run through qcalc in process."""
    import sys

    sys.path.insert(0, str(run.SRC))
    manifest = {}
    ops = []
    for workload in ("rotated", "flags"):
        cycles, m = workloads.build(workload, 2, tmp_path / workload)
        manifest.update(m)
        kinds = {"report", "cohomology", "family_solve"}
        for op in cycles[0]:
            if op.kind in kinds and op.source != "heisenberg" and m[op.input]["h"] == 1:
                kinds.discard(op.kind)
                ops.append(op)
    assert len(ops) == 3
    for op in ops:
        _, rc, out, _ = run.run_inprocess(op.argv(manifest), None)
        assert workloads.check(op, rc, out, expected, manifest) is None
