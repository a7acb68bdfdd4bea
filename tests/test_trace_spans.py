"""The benchmark's trace spans still name live qcalc functions.

`perfbench/tracing.py` wraps the functions listed in `SPANS` from outside the
package; a renamed or deleted function would silently drop out of
`run.py --trace 1`.  This test reads the list and does not change it.
"""

import importlib
import inspect
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
import tracing  # noqa: E402

from qcalc.biquard import run_pipeline  # noqa: E402
from qcalc.parser import parse  # noqa: E402


def test_every_span_is_a_module_level_qcalc_function():
    assert len(tracing.SPANS) == 31
    for name in tracing.SPANS:
        mod_name, fn_name = name.split(".")
        mod = importlib.import_module(f"qcalc.{mod_name}")
        fn = getattr(mod, fn_name, None)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == f"qcalc.{mod_name}", name


def test_traced_rotated_report_records_the_fingerprint_spans():
    import qcalc.report

    text, _ = gen.rotated_input(random.Random(1), "g2", 2, "g2_rot")
    doc = parse(text)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, ok = qcalc.report.build_report(doc.algebra, doc.frame)
    finally:
        tracer.uninstall()
    assert ok
    calls = Counter(span[0] for span in tracer.spans)
    for name in ("family.fingerprint", "exterior.derived_and_central_series", "linalg.rank"):
        assert calls[name] > 0, name
    assert calls["report.build_report"] == 1
    # qc.adapt is the one gate: each verdict is decided once per report
    assert calls["qc.check_compatibility"] == 1
    assert calls["qc.check_bi1"] == 1
    # the size readers go through Connection.gamma's Vecs and Curvature.values(),
    # as in every traced benchmark run, and count the tables' nonzero entries
    p = run_pipeline(doc.algebra, doc.frame)
    assert tracer.sizes["biquard.biquard_connection"] == [nonzero(p.conn.table)]
    assert tracer.sizes["biquard.curvature"] == [nonzero(p.riem.table)]
    assert 0 < nonzero(p.conn.table) and 0 < nonzero(p.riem.table)


def nonzero(table) -> int:
    return sum(map(nonzero, table)) if isinstance(table, list) else int(table != 0)
