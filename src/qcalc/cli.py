"""Command line interface.

Exit codes: 0 success, 1 a mathematical check failed, 2 bad input
(unreadable file, parse error, unknown catalog name, bad parameter use).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import catalog
from .biquard import run_pipeline
from .errors import (
    ParametricNotSupported,
    ParseError,
    QcalcError,
)
from .exterior import LieAlgebra, betti_numbers, cohomology_dim, search_flag, verify_flag
from .family import ALL_VALUES, solve_family
from .parser import AlgebraDocument, flag_texts, parse
from .qc import adapt, verdicts
from .report import build_report, wqc_block


class _InputError(QcalcError):
    """Problem with the invocation or the input document (exit code 2)."""


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    fmt = _resolve_format(args)
    try:
        return args.handler(args, fmt)
    except ParseError as e:
        _emit_error(e.message, fmt, line=e.line, col=e.col)
        return 2
    except (_InputError, ParametricNotSupported) as e:
        _emit_error(str(e), fmt)
        return 2
    except OSError as e:
        _emit_error(str(e), fmt)
        return 2
    except QcalcError as e:
        _emit_error(str(e), fmt)
        return 1


def _resolve_format(args) -> str:
    fmt = getattr(args, "format", None)
    if fmt:
        return fmt
    env = os.environ.get("QCALC_FORMAT", "")
    if env in ("json", "text"):
        return env
    return "text"


def _emit_error(message: str, fmt: str, line: int | None = None, col: int | None = None) -> None:
    if fmt == "json":
        err: dict = {"message": message}
        if line is not None:
            err["line"] = line
            err["col"] = col
        print(json.dumps({"error": err}, indent=2), file=sys.stderr)
    else:
        where = f"line {line}, col {col}: " if line is not None else ""
        print(f"error: {where}{message}", file=sys.stderr)


def _emit(obj: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        for line in text_lines(obj):
            print(line)


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qcalc",
        description="Exact invariants of 7-dimensional quaternionic-contact Lie algebras.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), help="output format (default: QCALC_FORMAT or text)")

    src = argparse.ArgumentParser(add_help=False, parents=[fmt])
    src.add_argument("file", nargs="?", help="structure-equation file")
    src.add_argument("--catalog", dest="catalog_name", metavar="NAME", help="use a built-in algebra")
    src.add_argument("--param", metavar="NAME=VALUE", help="specialize the parameter, e.g. mu=-1")

    p = sub.add_parser("check", parents=[src], help="validate the Jacobi identity and qc structure")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("report", parents=[src], help="compute the full invariant report")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("wqc", parents=[src], help="evaluate the conformal curvature tensor")
    p.set_defaults(handler=_cmd_wqc)

    p = sub.add_parser("cohomology", parents=[src], help="Betti numbers of the Chevalley-Eilenberg complex")
    p.add_argument("--k", type=int, default=None, help="single degree to compute")
    p.set_defaults(handler=_cmd_cohomology)

    flag = sub.add_parser("flag", help="ascending invariant flags")
    fsub = flag.add_subparsers(dest="flag_command", required=True)
    p = fsub.add_parser("verify", parents=[src], help="verify the flag declared in the document")
    p.set_defaults(handler=_cmd_flag_verify)
    p = fsub.add_parser("search", parents=[src], help="search for an invariant flag")
    p.set_defaults(handler=_cmd_flag_search)

    family = sub.add_parser("family", help="one-parameter families")
    fsub = family.add_subparsers(dest="family_command", required=True)
    p = fsub.add_parser("solve", parents=[src], help="parameter values satisfying the Jacobi identity")
    p.set_defaults(handler=_cmd_family_solve)

    cat = sub.add_parser("catalog", help="built-in algebras")
    csub = cat.add_subparsers(dest="catalog_command", required=True)
    p = csub.add_parser("list", parents=[fmt], help="list catalog names")
    p.set_defaults(handler=_cmd_catalog_list)
    p = csub.add_parser("show", parents=[fmt], help="print a catalog source")
    p.add_argument("name")
    p.set_defaults(handler=_cmd_catalog_show)

    return top


def _catalog_source(name: str) -> str:
    try:
        return catalog.source(name)
    except KeyError:
        raise _InputError(f"unknown catalog algebra {name!r}") from None


def _load_document(args) -> AlgebraDocument:
    if args.catalog_name and args.file:
        raise _InputError("give either a file or --catalog, not both")
    if args.catalog_name:
        return parse(_catalog_source(args.catalog_name))
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            return parse(fh.read())
    raise _InputError("provide a structure-equation file or --catalog NAME")


def _parse_param(args, g: LieAlgebra) -> Fraction | None:
    if not args.param:
        return None
    if "=" not in args.param:
        raise _InputError("--param expects NAME=VALUE, e.g. --param mu=-1")
    name, _, text = args.param.partition("=")
    if g.param is None:
        raise _InputError(f"{g.name} has no parameter")
    if name != g.param:
        raise _InputError(f"{g.name} has parameter {g.param!r}, not {name!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _InputError(f"cannot read {text!r} as a rational number") from None


def _load_specialized(args, flag: bool = False) -> AlgebraDocument:
    """Load the document and apply --param, requiring a parameter-free algebra,
    and with flag=True a declared, parameter-free flag."""
    doc = _load_document(args)
    g = doc.algebra
    value = _parse_param(args, g)
    if flag and doc.flag is None:
        raise _InputError(f"{g.name} declares no flag")
    if value is not None:
        doc = doc.substitute(value)
    if doc.algebra.parametric or (flag and doc.flag.parametric):
        raise ParametricNotSupported(
            f"{g.name} is parametric; specialize it with --param {g.param}=VALUE"
        )
    return doc


def _require_lie(g: LieAlgebra) -> None:
    if not g.is_valid:
        raise QcalcError(f"{g.name} does not satisfy the Jacobi identity")


def _bool(x) -> str:
    if x is None:
        return "n/a"
    return "true" if x else "false"


def _head_lines(o: dict):
    """The four opening lines of `check` and `report`."""
    yield f"name: {o['name']}"
    yield f"jacobi: {_bool(o['jacobi'])}"
    yield f"qc structure: {_bool(o['qc_valid'])}"
    yield f"vertical duality conditions: {_bool(o['bi1'])}"


def _sample_lines(label: str, samples: list[dict]):
    """One `label[a,b,c,d] = value` line per sample of `report` and `wqc`."""
    for s in samples:
        yield f"{label}[{','.join(str(i) for i in s['idx'])}] = {s['value']}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args, fmt: str) -> int:
    doc = _load_specialized(args)
    g, frame = doc.algebra, doc.frame
    ok = g.is_valid
    out: dict = {"name": g.name, "jacobi": ok, "qc_valid": None, "bi1": None}
    if ok and frame is not None:
        out["qc_valid"], out["bi1"], _ = verdicts(adapt, g, frame)
        ok = bool(out["bi1"])
    _emit(out, fmt, _head_lines)
    return 0 if ok else 1


def _cmd_report(args, fmt: str) -> int:
    doc = _load_specialized(args)
    g, frame = doc.algebra, doc.frame
    report, ok = build_report(g, frame)

    def lines(o):
        yield from _head_lines(o)
        yield f"scalar curvature S: {o['S'] if o['S'] is not None else 'n/a'}"
        if o["T0"] is not None:
            yield "traceless torsion T0:"
            for row in o["T0"]:
                yield "  " + "  ".join(row)
        if o["torsion_endos"] is not None:
            for r, m in enumerate(o["torsion_endos"], start=1):
                yield f"torsion endomorphism for vertical direction {r}:"
                for row in m:
                    yield "  " + "  ".join(row)
        yield f"torsion nonzero: {_bool(o['torsion_nonzero'])}"
        yield f"fundamental 4-form closed: {_bool(o['dOmega_zero'])}"
        yield f"vertical distribution integrable: {_bool(o['vertical_integrable'])}"
        for label, key in (("R", "R_samples"), ("Wqc", "wqc_samples")):
            if o[key] is not None:
                yield from _sample_lines(label, o[key])
        yield f"qc conformally flat: {_bool(o['conformally_flat'])}"
        if o["audit"] is not None:
            for c in o["audit"]:
                yield f"audit {c['name']}: {'pass' if c['passed'] else 'FAIL'}"
        if o["fingerprint"] is not None:
            fp = o["fingerprint"]
            yield "betti numbers: " + " ".join(str(b) for b in fp["betti"])
            yield f"nilpotent: {_bool(fp['nilpotent'])}"
            yield f"solvable: {_bool(fp['solvable'])}"

    _emit(report, fmt, lines)
    return 0 if ok else 1


def _cmd_wqc(args, fmt: str) -> int:
    doc = _load_specialized(args)
    g, frame = doc.algebra, doc.frame
    if frame is None:
        raise _InputError(f"{g.name} has no qc block")
    _require_lie(g)
    wqc_samples, flat = wqc_block(run_pipeline(g, frame))
    out = {"name": g.name, "conformally_flat": flat, "samples": wqc_samples}

    def lines(o):
        yield f"name: {o['name']}"
        yield from _sample_lines("Wqc", o["samples"])
        yield f"qc conformally flat: {_bool(o['conformally_flat'])}"

    _emit(out, fmt, lines)
    return 0


def _cmd_cohomology(args, fmt: str) -> int:
    g = _load_specialized(args).algebra
    _require_lie(g)
    if args.k is None:
        out: dict = {"name": g.name, "betti": betti_numbers(g)}
        degrees = list(enumerate(out["betti"]))
    else:
        if not 0 <= args.k <= g.dim:
            raise _InputError(f"degree {args.k} outside 0..{g.dim}")
        out = {"name": g.name, "k": args.k, "betti": cohomology_dim(g, args.k)}
        degrees = [(args.k, out["betti"])]
    _emit(out, fmt, lambda o: (f"b{k}({o['name']}) = {b}" for k, b in degrees))
    return 0


def _cmd_flag_verify(args, fmt: str) -> int:
    doc = _load_specialized(args, flag=True)
    g = doc.algebra
    _require_lie(g)
    verified, reason = verify_flag(g, doc.flag)
    out = {"name": g.name, "verified": verified, "reason": reason}

    def lines(o):
        yield f"name: {o['name']}"
        yield f"flag verified: {_bool(o['verified'])}"
        if o["reason"]:
            yield f"reason: {o['reason']}"

    _emit(out, fmt, lines)
    return 0 if verified else 1


def _cmd_flag_search(args, fmt: str) -> int:
    g = _load_specialized(args).algebra
    _require_lie(g)
    found = search_flag(g)
    out = {
        "name": g.name,
        "found": found is not None,
        "flag": None if found is None else flag_texts(found),
    }

    def lines(o):
        yield f"name: {o['name']}"
        if o["flag"] is None:
            yield "no invariant flag exists"
        else:
            for i, level in enumerate(o["flag"], start=1):
                yield f"V{i} = " + ", ".join(level)

    _emit(out, fmt, lines)
    return 0


def _cmd_family_solve(args, fmt: str) -> int:
    fam = _load_document(args).algebra
    if args.param:
        raise _InputError("family solve determines the parameter; drop --param")
    if fam.param is None:
        raise _InputError(f"{fam.name} has no parameter to solve for")
    roots = solve_family(fam)
    if roots is ALL_VALUES:
        out: dict = {"name": fam.name, "param": fam.param, "roots": "all"}
    else:
        out = {"name": fam.name, "param": fam.param, "roots": [str(r) for r in sorted(roots)]}

    def lines(o):
        if o["roots"] == "all":
            yield f"{o['param']}: every rational value satisfies the Jacobi identity"
        elif not o["roots"]:
            yield f"{o['param']}: no rational value satisfies the Jacobi identity"
        else:
            yield f"{o['param']} in {{" + ", ".join(o["roots"]) + "}"

    _emit(out, fmt, lines)
    return 0


def _cmd_catalog_list(args, fmt: str) -> int:
    out = {"names": catalog.names()}

    def lines(o):
        yield from o["names"]

    _emit(out, fmt, lines)
    return 0


def _cmd_catalog_show(args, fmt: str) -> int:
    text = _catalog_source(args.name)
    if fmt == "json":
        print(json.dumps({"name": args.name, "source": text}, indent=2))
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
