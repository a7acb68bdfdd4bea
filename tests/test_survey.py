import contextlib
import importlib.util
import io
from pathlib import Path

SURVEY = Path(__file__).resolve().parent.parent / "scripts" / "survey.py"

EXPECTED = [
    "g1: jacobi=True S=-1/2 torsion=True dOmega_zero=True conformally_flat=False"
    " b=[1, 1, 2, 4, 2, 1, 1, 0] ok=True",
    "g2: jacobi=True S=-1/6 torsion=True dOmega_zero=True conformally_flat=False"
    " b=[1, 1, 0, 0, 0, 1, 1, 0] ok=True",
    "heisenberg: jacobi=True S=0 torsion=False dOmega_zero=True conformally_flat=True"
    " b=[1, 4, 11, 14, 14, 11, 4, 1] ok=True",
    "prop31_family: Lie algebra exactly at ['-1', '-1/3']",
    "  mu=-1: S=-1/2 torsion=True b=[1, 1, 2, 4, 2, 1, 1, 0] ok=True",
    "  mu=-1/3: S=-1/6 torsion=True b=[1, 1, 0, 0, 0, 1, 1, 0] ok=True",
]


def test_survey_lines():
    spec = importlib.util.spec_from_file_location("survey", SURVEY)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        survey.main()
    assert out.getvalue().splitlines() == EXPECTED
