"""Full invariant report for one algebra, as an ordered JSON-ready dict."""

from __future__ import annotations

from .biquard import Curvature, Pipeline, audit, run_pipeline
from .conformal import is_qc_conformally_flat, wqc_tensor
from .exterior import LieAlgebra
from .family import fingerprint
from .qc import QCFrame, d_fundamental_form, verdicts, vertical_integrable
from .scalars import render

# the keys after "name" and "jacobi", in output order; each starts as None
REPORT_KEYS = (
    "qc_valid", "bi1", "S", "T0", "torsion_endos", "torsion_nonzero", "dOmega_zero",
    "vertical_integrable", "R_samples", "wqc_samples", "conformally_flat", "audit", "fingerprint",
)
SAMPLE_TUPLES = ((1, 2, 1, 2), (1, 3, 1, 3), (1, 4, 1, 4), (3, 4, 3, 4))


def _matrix_strings(m) -> list[list[str]]:
    return [[render(x) for x in row] for row in m]


def samples(tensor: Curvature, at) -> list[dict]:
    """The SAMPLE_TUPLES entries of a tensor on H, each index i read at at[i - 1]:
    R at frame.horizontal, W^qc at its own positions 1-4."""
    return [{"idx": list(t), "value": render(tensor[tuple(at[i - 1] for i in t)])} for t in SAMPLE_TUPLES]


def wqc_block(p: Pipeline) -> tuple[list[dict], bool]:
    """W^qc's samples and whether it vanishes (qc conformal flatness)."""
    w = wqc_tensor(p)
    return samples(w, (1, 2, 3, 4)), is_qc_conformally_flat(w)


def build_report(g: LieAlgebra, frame: QCFrame | None) -> tuple[dict, bool]:
    """Build the report dict and an overall pass flag.

    The pass flag is False when the Jacobi identity fails, or when a qc
    block is present and fails the gate of `run_pipeline` or any audit
    check.  The closedness of the fundamental 4-form, vertical
    integrability, and conformal flatness are reported as findings only.
    The fingerprint comes last: a number too long to print (NumberTooLong)
    ends the report before its seconds of rank work on such numbers.
    """
    jacobi = g.is_valid
    report: dict = {"name": g.name, "jacobi": jacobi, **dict.fromkeys(REPORT_KEYS)}
    if not jacobi:
        return report, False
    ok = frame is None or _qc_findings(report, g, frame)
    report["fingerprint"] = fingerprint(g)
    return report, ok


def _qc_findings(report: dict, g: LieAlgebra, frame: QCFrame) -> bool:
    """Fill in the report's qc keys; False when the gate or an audit check fails."""
    report["qc_valid"], report["bi1"], p = verdicts(run_pipeline, g, frame)
    if not report["qc_valid"]:
        return False
    report["dOmega_zero"] = d_fundamental_form(g, frame).is_zero
    report["vertical_integrable"] = vertical_integrable(g, frame)
    if p is None:
        return False
    report["S"] = render(p.s_value)
    report["T0"] = _matrix_strings(p.t0)
    report["torsion_endos"] = [_matrix_strings(m) for m in p.endos]
    report["torsion_nonzero"] = any(
        any(x != 0 for row in m for x in row) for m in p.endos
    )
    report["R_samples"] = samples(p.riem, p.frame.horizontal)
    report["wqc_samples"], report["conformally_flat"] = wqc_block(p)
    report["audit"] = audit(p)
    return all(c["passed"] for c in report["audit"])
