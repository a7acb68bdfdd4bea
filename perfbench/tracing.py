"""Span tracing of qcalc's public functions from outside the package.

`Tracer.install` replaces each function in `SPANS` by a wrapper in every
`qcalc` module namespace that binds it (report, family and cli import by
name, so patching the defining module alone would miss those calls).  Spans
are kept in memory as [name, start, end, parent] and aggregated at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

SPANS = (
    "parser.parse",
    "qc.check_compatibility",
    "qc.check_bi1",
    "qc.d_fundamental_form",
    "qc.vertical_integrable",
    "qc.derive_complex_structures",
    "biquard.run_pipeline",
    "biquard.sp1_connection_forms",
    "biquard.ricci_forms",
    "biquard.solve_qc_scalar_curvature",
    "biquard.t0_tensor",
    "biquard.torsion_endomorphisms",
    "biquard.assemble_torsion",
    "biquard.levi_civita",
    "biquard.biquard_connection",
    "biquard.curvature",
    "biquard.audit",
    "conformal.wqc_tensor",
    "conformal.kulkarni_nomizu",
    "family.fingerprint",
    "family.solve_family",
    "family.jacobi_constraints",
    "exterior.cohomology_dim",
    "exterior.derived_and_central_series",
    "exterior.search_flag",
    "exterior.verify_flag",
    "linalg.rank",
    "linalg.kernel",
    "linalg.char_poly",
    "scalars.rational_roots",
    "report.build_report",
)


def _curvature_size(riem) -> int:
    return sum(1 for v in riem.values() if v != 0)


def _connection_size(conn) -> int:
    return sum(1 for vec in conn.gamma.values() for c in vec.comps if c != 0)


# Output sizes recorded as `<span>.nonzero`.
SIZES = {
    "biquard.curvature": _curvature_size,
    "biquard.biquard_connection": _connection_size,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if size is not None:
                self.sizes[name].append(size(result))
            return result

        return traced

    def open_spans(self) -> list[str]:
        return [self.spans[i][0] for i in self.stack]

    def close_open(self, now: float) -> None:
        """End every span an interrupted operation left open."""
        for span in self.spans:
            if span[2] is None:
                span[2] = now
        self.stack.clear()

    def install(self) -> None:
        """Wrap every function in SPANS wherever a qcalc module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qcalc" or n.startswith("qcalc.")]
        for name in SPANS:
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"qcalc.{mod_name}"), fn_name)
            wrapper = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patches.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()


def self_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """{name: (total self seconds, calls)}; self = duration minus child durations.

    Spans come from one thread and nest properly, so the children of a span
    are disjoint and the time they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _) in enumerate(spans):
        out[name][0] += (end - start) - child_time[i]
        out[name][1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}
