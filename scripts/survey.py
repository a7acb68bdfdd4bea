"""Survey the catalog: one line of headline invariants per algebra.

Run as:  python3 scripts/survey.py
"""

from __future__ import annotations

from qcalc import (
    ALL_VALUES,
    build_report,
    catalog,
    parse,
    solve_family,
)


def survey_one(name: str) -> None:
    doc = parse(catalog.source(name))
    g = doc.algebra
    if g.parametric:
        roots = solve_family(g)
        if roots is ALL_VALUES:
            print(f"{name}: Lie algebra for every parameter value")
            return
        ordered = sorted(roots)
        print(f"{name}: Lie algebra exactly at {sorted(str(r) for r in ordered)}")
        for value in ordered:
            sub = doc.substitute(value)
            report, ok = build_report(sub.algebra, sub.frame)
            print(f"  {g.param}={value}: S={report['S']} "
                  f"torsion={report['torsion_nonzero']} b={report['fingerprint']['betti']} ok={ok}")
        return
    report, ok = build_report(g, doc.frame)
    line = f"{name}: jacobi={report['jacobi']}"
    if report["S"] is not None:
        line += (f" S={report['S']} torsion={report['torsion_nonzero']}"
                 f" dOmega_zero={report['dOmega_zero']}"
                 f" conformally_flat={report['conformally_flat']}")
    line += f" b={report['fingerprint']['betti']} ok={ok}"
    print(line)


def main() -> None:
    for name in catalog.names():
        survey_one(name)


if __name__ == "__main__":
    main()
