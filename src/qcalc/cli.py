"""Command line interface.

Exit codes: 0 success, 1 a mathematical check failed, 2 bad input
(unreadable file, parse error, unknown catalog name, bad parameter use, a
result with a number too long to print) or output that cannot be written.

Each command is one fresh process, so each handler imports only what it
runs: `catalog` loads no arithmetic, and only `report` and `wqc` load the
connection stack (`biquard`, `conformal`, `report`).  A well-formed command
line is read in one pass (`_read_argv`); argparse is imported only for help,
errors and the spellings that pass declines.  Both readers take the command
line from one declaration, `_LEAVES`, with its `_GROUPS` and `_ARGUMENTS`.
`run` ends the process as soon as the output is written, skipping the
interpreter's teardown.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import catalog
from .errors import NotALieAlgebra, NumberTooLong, ParametricNotSupported, ParseError, QcalcError


class _InputError(QcalcError):
    """Problem with the invocation or the input document (exit code 2)."""


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    fmt = _resolve_format(args)
    try:
        rc = args.handler(args, fmt)
        sys.stdout.flush()
        return rc
    except ParseError as e:
        _emit_error(e.message, fmt, line=e.line, col=e.col)
        return 2
    except (_InputError, ParametricNotSupported, NumberTooLong, OSError) as e:
        _emit_error(str(e), fmt)
        return 2
    except QcalcError as e:
        _emit_error(str(e), fmt)
        return 1


def run() -> None:
    """The `qcalc` process: `main`, then `os._exit` with its code, so no
    interpreter teardown (module cleanup, the last garbage collection) runs
    once the output is written.  `main` has flushed stdout.  An uncaught
    exception, argparse's `SystemExit` and `KeyboardInterrupt` pass through
    and end the interpreter normally.
    """
    rc = main()
    sys.stderr.flush()
    os._exit(rc)


def _resolve_format(args) -> str:
    fmt = getattr(args, "format", None)
    if fmt:
        return fmt
    env = os.environ.get("QCALC_FORMAT", "")
    if env in _ARGUMENTS["--format"]["choices"]:
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


def _build_parser():
    """argparse's parser for every command, built from `_LEAVES`: it prints
    help and usage errors, and parses the lines `_read_argv` declines."""
    import argparse

    top = argparse.ArgumentParser(
        prog="qcalc",
        description="Exact invariants of 7-dimensional quaternionic-contact Lie algebras.",
    )
    commands = {(): top.add_subparsers(dest="command", required=True)}
    for words, (text, handler, positional, options) in _LEAVES.items():
        group = words[:-1]
        if group not in commands:
            p = commands[()].add_parser(group[0], help=_GROUPS[group[0]])
            commands[group] = p.add_subparsers(dest=f"{group[0]}_command", required=True)
        p = commands[group].add_parser(words[-1], help=text)
        for option, dest in options.items():
            p.add_argument(option, dest=dest, **_ARGUMENTS[option])
        if positional:
            p.add_argument(positional, **_ARGUMENTS[positional])
        p.set_defaults(handler=handler)
    return top


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed command line in one pass, equal to what
    `_build_parser` makes of it, or None.

    It reads a command and its sub-command, at most one positional that is
    non-empty and does not start with '-', and the exact options of `_LEAVES`,
    each followed by a separate value that does not start with '-' and that
    the option's `type` and `choices` in `_ARGUMENTS` take; the last of a
    repeated option wins.  Anything else, including help, '--', '='
    spellings, abbreviations and a value argparse would refuse, gives None,
    and argparse parses the line and prints its help or error.
    """
    words = 2 if argv and argv[0] in _GROUPS else 1
    leaf = _LEAVES.get(tuple(argv[:words]))
    if leaf is None:
        return None
    _, handler, positional, options = leaf
    args: dict = {"command": argv[0], "handler": handler, **dict.fromkeys(options.values())}
    if words == 2:
        args[f"{argv[0]}_command"] = argv[1]
    if positional:
        args[positional] = None
    rest = iter(argv[words:])
    for word in rest:
        if word.startswith("-"):
            dest, value = options.get(word), next(rest, "-")
            if dest is None or value.startswith("-"):
                return None
            rules = _ARGUMENTS[word]
            try:
                value = rules.get("type", str)(value)
            except ValueError:
                return None
            if value not in rules.get("choices", (value,)):
                return None
            args[dest] = value
        elif word and positional and args[positional] is None:
            args[positional] = word
        else:
            return None
    if positional and args[positional] is None and _ARGUMENTS[positional].get("nargs") != "?":
        return None
    return SimpleNamespace(**args)


def _catalog_source(name: str) -> str:
    try:
        return catalog.source(name)
    except KeyError:
        raise _InputError(f"unknown catalog algebra {name!r}") from None


def _load_document(args) -> AlgebraDocument:
    from .parser import parse

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
    from fractions import Fraction

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


def _load_specialized(args, frame: bool = False, flag: bool = False) -> AlgebraDocument:
    """Load the document and apply --param, requiring a parameter-free algebra,
    with frame=True parameter-free omegas, and with flag=True a declared,
    parameter-free flag."""
    doc = _load_document(args)
    g = doc.algebra
    value = _parse_param(args, g)
    if flag and doc.flag is None:
        raise _InputError(f"{g.name} declares no flag")
    if value is not None:
        doc = doc.substitute(value)
    omegas = doc.frame.omegas if frame and doc.frame is not None else ()
    if doc.algebra.parametric or any(o.parametric for o in omegas) or (flag and doc.flag.parametric):
        raise ParametricNotSupported(
            f"{g.name} is parametric; specialize it with --param {g.param}=VALUE"
        )
    return doc


def _require_lie(g: LieAlgebra) -> None:
    if not g.is_valid:
        raise NotALieAlgebra(f"{g.name} does not satisfy the Jacobi identity")


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
    from .qc import adapt, verdicts

    doc = _load_specialized(args, frame=True)
    g, frame = doc.algebra, doc.frame
    ok = g.is_valid
    out: dict = {"name": g.name, "jacobi": ok, "qc_valid": None, "bi1": None}
    if ok and frame is not None:
        out["qc_valid"], out["bi1"], _ = verdicts(adapt, g, frame)
        ok = bool(out["bi1"])
    _emit(out, fmt, _head_lines)
    return 0 if ok else 1


def _cmd_report(args, fmt: str) -> int:
    from .report import build_report

    doc = _load_specialized(args, frame=True)
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
    from .biquard import run_pipeline
    from .report import wqc_block

    doc = _load_specialized(args, frame=True)
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
    from .exterior import betti_numbers, cohomology_dim

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
    from .exterior import verify_flag

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
    from .exterior import search_flag
    from .parser import flag_texts

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
    from .family import ALL_VALUES, solve_family
    from .scalars import render

    fam = _load_document(args).algebra
    if args.param:
        raise _InputError("family solve determines the parameter; drop --param")
    if fam.param is None:
        raise _InputError(f"{fam.name} has no parameter to solve for")
    roots = solve_family(fam)
    if roots is ALL_VALUES:
        out: dict = {"name": fam.name, "param": fam.param, "roots": "all"}
    else:
        out = {"name": fam.name, "param": fam.param, "roots": [render(r) for r in sorted(roots)]}

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


# argparse's keywords for each option and positional of `_LEAVES`
_ARGUMENTS = {
    "--format": {"choices": ("json", "text"), "help": "output format (default: QCALC_FORMAT or text)"},
    "--catalog": {"metavar": "NAME", "help": "use a built-in algebra"},
    "--param": {"metavar": "NAME=VALUE", "help": "specialize the parameter, e.g. mu=-1"},
    "--k": {"type": int, "help": "single degree to compute"},
    "file": {"nargs": "?", "help": "structure-equation file"},
    "name": {},
}
_FORMAT = {"--format": "format"}
_SOURCE = {**_FORMAT, "--catalog": "catalog_name", "--param": "param"}

# the first word of each two-word command -> its help
_GROUPS = {"flag": "ascending invariant flags", "family": "one-parameter families", "catalog": "built-in algebras"}

# the one declaration of the command line, read by `_build_parser` and `_read_argv`:
# the words of each command -> (help, handler, positional, option -> dest), in help order
_LEAVES = {
    ("check",): ("validate the Jacobi identity and qc structure", _cmd_check, "file", _SOURCE),
    ("report",): ("compute the full invariant report", _cmd_report, "file", _SOURCE),
    ("wqc",): ("evaluate the conformal curvature tensor", _cmd_wqc, "file", _SOURCE),
    ("cohomology",): (
        "Betti numbers of the Chevalley-Eilenberg complex", _cmd_cohomology, "file", {**_SOURCE, "--k": "k"}
    ),
    ("flag", "verify"): ("verify the flag declared in the document", _cmd_flag_verify, "file", _SOURCE),
    ("flag", "search"): ("search for an invariant flag", _cmd_flag_search, "file", _SOURCE),
    ("family", "solve"): ("parameter values satisfying the Jacobi identity", _cmd_family_solve, "file", _SOURCE),
    ("catalog", "list"): ("list catalog names", _cmd_catalog_list, None, _FORMAT),
    ("catalog", "show"): ("print a catalog source", _cmd_catalog_show, "name", _FORMAT),
}


if __name__ == "__main__":
    run()
