"""The public surface of `qcalc`, and the line between it and the test oracles.

Every name in `qcalc.__all__` resolves, once, and README's Library example
runs and prints g2's S, R(e_1, e_2, e_1, e_2) and a passing audit.  The
reference calculus that only the tests use lives in `oracles`, and none of
it is back in the module or class it came from.
"""

import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import qcalc

MOVED = [
    ("qcalc.exterior", None, "dot"),
    ("qcalc.exterior", None, "form_coords"),
    ("qcalc.exterior", None, "differential_matrix"),
    ("qcalc.exterior", None, "_det"),
    ("qcalc.exterior", None, "_common_eigenvectors"),
    ("qcalc.exterior", None, "_find_ideal_chain"),
    ("qcalc.exterior", "Form", "evaluate"),
    ("qcalc.exterior", "Form", "interior"),
    ("qcalc.exterior", "Form", "covector"),
    ("qcalc.exterior", "LieAlgebra", "jacobi_check"),
    ("qcalc.exterior", "LieAlgebra", "bracket"),
    ("qcalc.qc", None, "apply_endo"),
    ("qcalc.qc", None, "hcomps"),
    ("qcalc.qc", None, "from_hcomps"),
    ("qcalc.qc", "QCFrame", "hvec"),
    ("qcalc.qc", None, "restrict_h"),
    ("qcalc.biquard", None, "connection_torsion"),
    ("qcalc.biquard", "Connection", "nabla_vec"),
    ("qcalc.catalog", None, "document"),
]


def test_every_public_name_resolves_once():
    assert len(qcalc.__all__) == len(set(qcalc.__all__))
    missing = [name for name in qcalc.__all__ if not hasattr(qcalc, name)]
    assert missing == []


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from qcalc import *", namespace)
    assert set(qcalc.__all__) <= set(namespace)


@pytest.mark.parametrize("module, owner, name", MOVED, ids=lambda x: x or "-")
def test_moved_name_lives_only_in_the_oracles(module, owner, name):
    home = importlib.import_module(module)
    if owner is not None:
        home = getattr(home, owner)
    assert not hasattr(home, name)
    assert name not in qcalc.__all__ and not hasattr(qcalc, name)
    assert callable(getattr(oracles, name))


def test_readme_library_example_prints_its_values():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == ["-1/6", "11/18", "True", "-1/6"]


@pytest.mark.parametrize("read, loaded", [("pass", []), ("qcalc.QcalcError", ["qcalc.errors"])])
def test_import_loads_only_the_home_modules_of_names_read(read, loaded):
    code = f"import qcalc, sys; {read}; print(sorted(m for m in sys.modules if m.startswith('qcalc.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(qcalc.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loaded)


def test_public_names_are_their_home_objects():
    for name in qcalc.__all__:
        home = importlib.import_module(f"qcalc.{qcalc._HOME[name]}")
        obj = getattr(qcalc, name)
        assert obj is getattr(home, name)
        if callable(obj) and hasattr(obj, "__qualname__"):
            assert obj.__module__ == home.__name__, name
        # bound in the package after the first access
        assert vars(qcalc)[name] is obj
    assert set(qcalc.__all__) <= set(dir(qcalc))


@pytest.mark.parametrize("name", ["no_such_name", "rank"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(qcalc, name)
