"""Exact invariants of 7-dimensional quaternionic-contact Lie algebras.

The package represents a Lie algebra by the structure equations of its dual
coframe, checks the Jacobi identity as closedness of the differential, and
computes the canonical-connection invariants of a quaternionic-contact
structure in exact rational (or univariate polynomial) arithmetic.

Every public name resolves on first access (PEP 562): `import qcalc` loads no
submodule, and `qcalc.X` imports the module that defines X and binds X here,
so `qcalc.X is qcalc.<module>.X`.
"""

import importlib

_PUBLIC = {
    "biquard": (
        "Connection", "Curvature", "Pipeline", "Torsion", "assemble_torsion", "audit",
        "biquard_connection", "curvature", "levi_civita", "ricci_forms", "run_pipeline",
        "solve_qc_scalar_curvature", "sp1_connection_forms", "t0_tensor", "torsion_endomorphisms",
    ),
    "conformal": ("is_qc_conformally_flat", "kulkarni_nomizu", "wqc_tensor"),
    "errors": (
        "InconsistentCurvature", "InconsistentTorsion", "IndeterminateMismatch", "InternalError",
        "InvalidFlag", "NotALieAlgebra", "NotIntegrable", "NotQuaternionic", "NumberTooLong",
        "ParametricNotSupported", "ParseError", "QcalcError", "ZeroPolynomial",
    ),
    "exterior": (
        "MAX_DIM", "Flag", "Form", "LieAlgebra", "Vec", "betti_numbers", "cohomology_dim",
        "derived_and_central_series", "monomials", "rescale_covectors", "search_flag", "substitute_form",
        "verify_flag",
    ),
    "family": ("ALL_VALUES", "fingerprint", "jacobi_constraints", "solve_family"),
    "parser": ("AlgebraDocument", "form_text", "parse", "print_document"),
    "qc": (
        "QCFrame", "adapt", "check_bi1", "check_compatibility", "d_fundamental_form",
        "derive_complex_structures", "fundamental_form", "vertical_integrable",
    ),
    "report": ("build_report",),
    "scalars": ("Poly", "Scalar", "is_zero", "poly", "rational_roots", "substitute", "variable"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
