"""Parser and printer for the .alg structure-equation format.

A document is line-oriented:

    algebra NAME dim N [param IDENT]
    d e1 = 0
    d e5 = 2(e12 + e34) - e46
    qc horizontal 1 2 3 4 vertical 5 6 7 scale 2
    omega1 = e12 + e34
    flag = e1 | e1, e4 | ...

Digit monomials e12 mean e^1 wedge e^2 (dimension is capped at 9 so single
digits are unambiguous); e1^e2 is always accepted.  '#' starts a comment.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .exterior import MAX_DIM, Flag, Form, LieAlgebra, substitute_form
from .qc import QCFrame
from .scalars import ZERO, Poly, Scalar, Value, is_zero, replace, substitute, variable

_TOKEN_RE = re.compile(r"(?P<NUMBER>\d+)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<SYM>[-+*/^()=,|])|\S")
_MONO_RE = re.compile(r"^e([1-9][0-9]*)$")
MAX_EXPONENT = 64  # bounds n in x^n, and the degree in the parameter of mu^n or (mu^2 + 1)^n


class Token(Value):
    kind: str  # NUMBER | IDENT | SYM | END
    text: str
    line: int
    col: int

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        fields = self.__dict__  # set directly: one Token per lexeme
        fields["kind"], fields["text"], fields["line"], fields["col"] = kind, text, line, col


def _tokenize_line(text: str, lineno: int) -> list[Token]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        t = m.group(0)
        if t == "#":
            break
        if m.lastgroup is None:
            raise ParseError(f"unexpected character {t!r}", lineno, m.start() + 1)
        out.append(Token(m.lastgroup, t, lineno, m.start() + 1))
    out.append(Token("END", "", lineno, len(text) + 1))
    return out


class AlgebraDocument(Value):
    """A parsed document: the algebra, and the qc frame and flag it declares."""

    algebra: LieAlgebra
    frame: QCFrame | None = None
    flag: Flag | None = None

    def substitute(self, value: Fraction) -> AlgebraDocument:
        """Specialize the parameter in the algebra, the omegas and the flag rows."""
        frame, flag = self.frame, self.flag
        if frame is not None:
            frame = replace(frame, omegas=tuple(substitute_form(o, value) for o in frame.omegas))
        if flag is not None:
            levels = tuple(tuple(tuple(substitute(x, value) for x in row) for row in lev) for lev in flag.levels)
            flag = Flag(flag.dim, levels)
        return AlgebraDocument(self.algebra.substitute(value), frame, flag)


class _LineParser:
    """Recursive-descent expression parser over one line's tokens."""

    def __init__(self, tokens: list[Token], dim: int, param: str | None):
        self.toks = tokens
        self.pos = 0
        self.dim = dim
        self.param = param

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "END":
            self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind.lower()
            raise ParseError(f"expected {want}, found {t.text or 'end of line'}", t.line, t.col)
        return self.next()

    def at_sym(self, *texts: str) -> bool:
        t = self.peek()
        return t.kind == "SYM" and t.text in texts

    def done(self) -> bool:
        return self.peek().kind == "END"

    def expect_end(self) -> None:
        t = self.peek()
        if t.kind != "END":
            raise ParseError(f"unexpected trailing {t.text!r}", t.line, t.col)

    # values are Scalars or Forms; combination rules live in the helpers below

    def expression(self):
        """Sum of terms.  A run of same-degree form terms is summed in one
        dict, made into a Form once at its end."""
        negate = False
        if self.at_sym("-"):
            self.next()
            negate = True
        elif self.at_sym("+"):
            self.next()
        value = self.term()
        if negate:
            value = self._negate(value)
        run = None  # the terms of value, while value heads a run of forms
        while self.at_sym("+", "-"):
            op = self.next()
            rhs = self.term()
            if op.text == "-":
                rhs = self._negate(rhs)
            if self._is_form(value) and self._is_form(rhs) and value.degree == rhs.degree:
                run = dict(value.terms) if run is None else run
                for k, v in rhs.terms.items():
                    run[k] = run.get(k, ZERO) + v
                continue
            if run is not None:
                value, run = Form.make(self.dim, value.degree, run), None
            value = self._add(value, rhs, op)
        return value if run is None else Form.make(self.dim, value.degree, run)

    def term(self):
        value = self.factor()
        while True:
            if self.at_sym("*"):
                op = self.next()
                value = self._mul(value, self.factor(), op)
            elif self.at_sym("/"):
                op = self.next()
                value = self._div(value, self.factor(), op)
            elif self.peek().kind in ("NUMBER", "IDENT") or self.at_sym("("):
                op = self.peek()
                value = self._mul(value, self.factor(), op)
            else:
                return value

    def factor(self):
        value = self.atom()
        while self.at_sym("^"):
            op = self.next()
            value = self._pow(value, self.atom(), op)
        return value

    def atom(self):
        t = self.peek()
        if t.kind == "NUMBER":
            return Fraction(self.number())
        if t.kind == "IDENT":
            self.next()
            m = _MONO_RE.match(t.text)
            if m:
                idx = tuple(int(ch) for ch in m.group(1))
                for i in idx:
                    if not 1 <= i <= self.dim:
                        raise ParseError(
                            f"index {i} out of range for dimension {self.dim}",
                            t.line,
                            t.col,
                        )
                return Form.monomial(self.dim, Fraction(1), idx)
            if self.param is not None and t.text == self.param:
                return variable(self.param)
            raise ParseError(f"unknown identifier {t.text!r}", t.line, t.col)
        if self.at_sym("("):
            self.next()
            value = self.expression()
            self.expect("SYM", ")")
            return value
        raise ParseError(f"expected a value, found {t.text or 'end of line'}", t.line, t.col)

    @staticmethod
    def _is_form(v) -> bool:
        return isinstance(v, Form)

    def _negate(self, v):
        return -v

    def _add(self, a, b, tok: Token):
        if self._is_form(a) and self._is_form(b):
            # expression() sums forms of one degree itself
            if a.is_zero:
                return b
            if b.is_zero:
                return a
            raise ParseError(
                f"cannot add a degree-{a.degree} and a degree-{b.degree} form",
                tok.line,
                tok.col,
            )
        if self._is_form(a) or self._is_form(b):
            form, scal = (a, b) if self._is_form(a) else (b, a)
            if is_zero(scal):
                return form
            raise ParseError("cannot add a scalar and a form", tok.line, tok.col)
        return a + b

    def _mul(self, a, b, tok: Token):
        if self._is_form(a) and self._is_form(b):
            return self._bounded(a.wedge(b), tok)
        return self._bounded(b * a if self._is_form(a) else a * b, tok)  # a scalar goes on the left

    def _bounded(self, product, tok: Token):
        """The product, unless its degree in the parameter is above MAX_EXPONENT;
        checked on every product, so that a run of factors cannot grow it."""
        coeffs = product.terms.values() if self._is_form(product) else (product,)
        degree = max((c.degree for c in coeffs if isinstance(c, Poly)), default=0)
        if degree > MAX_EXPONENT:
            raise ParseError(f"degree {degree} in {self.param} is above {MAX_EXPONENT}", tok.line, tok.col)
        return product

    def _div(self, a, b, tok: Token):
        if self._is_form(b) or isinstance(b, Poly):
            raise ParseError("can only divide by a rational", tok.line, tok.col)
        if b == 0:
            raise ParseError("division by zero", tok.line, tok.col)
        return (1 / b) * a if self._is_form(a) else a / b

    def _pow(self, a, b, tok: Token):
        if self._is_form(a) and self._is_form(b):
            return self._bounded(a.wedge(b), tok)
        if not self._is_form(a) and isinstance(b, Fraction) and b.denominator == 1 and b >= 0:
            degree = b * (a.degree if isinstance(a, Poly) else 1)
            if degree > MAX_EXPONENT:
                what = f"exponent {b}" if degree == b else f"degree {degree} in {a.var}"
                raise ParseError(f"{what} is above {MAX_EXPONENT}", tok.line, tok.col)
            out: Scalar = Fraction(1)
            for _ in range(int(b)):
                out = out * a
            return out
        raise ParseError("'^' joins two forms or raises a scalar to an integer", tok.line, tok.col)

    def form_expression(self, degree: int, what: str) -> Form:
        value = self.expression()
        if not self._is_form(value):
            if is_zero(value):
                return Form.zero(self.dim, degree)
            raise ParseError(
                f"{what} must be a degree-{degree} form", self.peek().line, 1
            )
        if value.is_zero and value.degree != degree:
            return Form.zero(self.dim, degree)
        if value.degree != degree:
            raise ParseError(
                f"{what} must be a degree-{degree} form, got degree {value.degree}",
                self.peek().line,
                1,
            )
        return value

    def number(self) -> int:
        """The next token, a NUMBER, as an int: one with more digits than
        int() takes (sys.get_int_max_str_digits()) is a ParseError at it."""
        t = self.expect("NUMBER")
        try:
            return int(t.text)
        except ValueError:
            raise ParseError(f"number of {len(t.text)} digits is too long", t.line, t.col) from None

    def rational(self) -> Fraction:
        neg = self.at_sym("-")
        if neg:
            self.next()
        val = Fraction(self.number())
        if self.at_sym("/"):
            self.next()
            t, den = self.peek(), self.number()
            if den == 0:
                raise ParseError("division by zero", t.line, t.col)
            val = val / den
        return -val if neg else val

    def index(self) -> int:
        t, i = self.peek(), self.number()
        if not 1 <= i <= self.dim:
            raise ParseError(f"index {i} out of range for dimension {self.dim}", t.line, t.col)
        return i


def parse(text: str) -> AlgebraDocument:
    """Parse a full .alg document."""
    header = split = flag = None
    diffs: dict[int, Form] = {}
    omegas: dict[int, Form] = {}
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if tokens[0].kind == "END":
            continue
        last_line = lineno
        if header is None:
            header = _parse_header(tokens)
            continue
        head = tokens[0]
        p = _LineParser(tokens, header[1], header[2])
        if head.kind == "IDENT" and head.text == "d":
            _parse_differential(p, diffs)
        elif head.kind == "IDENT" and head.text == "qc":
            split = _parse_qc(p, split)
        elif head.kind == "IDENT" and re.match(r"^omega[123]$", head.text):
            _parse_omega(p, split, omegas)
        elif head.kind == "IDENT" and head.text == "flag":
            flag = _parse_flag(p, flag)
        else:
            raise ParseError(
                f"expected 'd', 'qc', 'omegaN' or 'flag', found {head.text!r}",
                head.line,
                head.col,
            )
    if header is None:
        raise ParseError("empty document", last_line, 1)
    name, dim, param = header
    for k in range(1, dim + 1):
        if k not in diffs:
            raise ParseError(f"missing differential for e{k}", last_line, 1)
    frame = None
    if split is not None:
        for r in (1, 2, 3):
            if r not in omegas:
                raise ParseError(f"qc block lacks omega{r}", last_line, 1)
        horizontal, vertical, scale = split
        frame = QCFrame(dim, horizontal, vertical, (omegas[1], omegas[2], omegas[3]), scale)
    algebra = LieAlgebra(name, dim, tuple(diffs[k] for k in range(1, dim + 1)), param)
    return AlgebraDocument(algebra, frame, flag)


def _parse_header(tokens: list[Token]) -> tuple[str, int, str | None]:
    p = _LineParser(tokens, MAX_DIM, None)
    p.expect("IDENT", "algebra")
    name = p.expect("IDENT").text
    p.expect("IDENT", "dim")
    t, dim = p.peek(), p.number()
    if not 1 <= dim <= MAX_DIM:
        raise ParseError(f"dimension {dim} outside 1..{MAX_DIM}", t.line, t.col)
    param = None
    if p.peek().kind == "IDENT" and p.peek().text == "param":
        p.next()
        param = p.expect("IDENT").text
    p.expect_end()
    return name, dim, param


def _parse_differential(p: _LineParser, diffs: dict[int, Form]) -> None:
    p.expect("IDENT", "d")
    t = p.expect("IDENT")
    m = re.match(r"^e([1-9])$", t.text)
    if not m or int(m.group(1)) > p.dim:
        raise ParseError(f"expected a covector e1..e{p.dim}", t.line, t.col)
    k = int(m.group(1))
    if k in diffs:
        raise ParseError(f"duplicate differential for e{k}", t.line, t.col)
    p.expect("SYM", "=")
    diffs[k] = p.form_expression(2, f"d e{k}")
    p.expect_end()


def _parse_qc(p: _LineParser, split: tuple | None) -> tuple:
    """(horizontal, vertical, scale) of the qc line."""
    head = p.expect("IDENT", "qc")
    if split is not None:
        raise ParseError("duplicate qc block", head.line, head.col)
    if p.dim != 7:
        raise ParseError("qc block requires dimension 7", head.line, head.col)
    p.expect("IDENT", "horizontal")
    horizontal = tuple(p.index() for _ in range(4))
    p.expect("IDENT", "vertical")
    vertical = tuple(p.index() for _ in range(3))
    used = horizontal + vertical
    if len(set(used)) != 7:
        raise ParseError("horizontal and vertical indices must cover 7 distinct basis directions", head.line, head.col)
    scale = Fraction(2)
    if not p.done():
        p.expect("IDENT", "scale")
        scale = p.rational()
    p.expect_end()
    return horizontal, vertical, scale


def _parse_omega(p: _LineParser, split: tuple | None, omegas: dict[int, Form]) -> None:
    t = p.expect("IDENT")
    r = int(t.text[-1])
    if split is None:
        raise ParseError("omega lines must follow the qc line", t.line, t.col)
    if r in omegas:
        raise ParseError(f"duplicate omega{r}", t.line, t.col)
    p.expect("SYM", "=")
    omegas[r] = p.form_expression(2, f"omega{r}")
    p.expect_end()


def _parse_flag(p: _LineParser, flag: Flag | None) -> Flag:
    t = p.expect("IDENT", "flag")
    if flag is not None:
        raise ParseError("duplicate flag block", t.line, t.col)
    p.expect("SYM", "=")
    levels: list[list[Form]] = []
    while True:
        level = [p.form_expression(1, "flag covector")]
        while p.at_sym(","):
            p.next()
            level.append(p.form_expression(1, "flag covector"))
        levels.append(level)
        if p.at_sym("|"):
            p.next()
            continue
        break
    p.expect_end()
    if len(levels) != p.dim:
        raise ParseError(
            f"flag must list {p.dim} levels, got {len(levels)}", t.line, t.col
        )
    for i, level in enumerate(levels, start=1):
        if len(level) != i:
            raise ParseError(
                f"flag level {i} must list {i} covectors, got {len(level)}", t.line, t.col
            )
    cols = range(1, p.dim + 1)
    return Flag(p.dim, tuple(tuple(tuple(f.coeff((j,)) for j in cols) for f in level) for level in levels))


# ---------------------------------------------------------------------------
# printing


def _coeff_text(c: Scalar) -> tuple[str, str]:
    """(sign, body) for one monomial coefficient."""
    if isinstance(c, Poly):
        return "+", f"({c})"
    sign = "-" if c < 0 else "+"
    a = abs(c)
    if a == 1:
        return sign, ""
    if a.denominator == 1:
        return sign, str(a)
    return sign, f"({a})"


def form_text(f: Form) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for key, c in f.terms.items():
        sign, body = _coeff_text(c)
        mono = "e" + "".join(str(i) for i in key)
        parts.append((sign, f"{body}{mono}" if body else mono))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def flag_texts(flag: Flag) -> list[list[str]]:
    """The covectors of each level, as form_text prints them."""
    return [
        [form_text(Form.make(flag.dim, 1, {(j,): c for j, c in enumerate(row, start=1)})) for row in level]
        for level in flag.levels
    ]


def print_document(doc: AlgebraDocument) -> str:
    g, b = doc.algebra, doc.frame
    lines = [f"algebra {g.name} dim {g.dim}" + (f" param {g.param}" if g.param else "")]
    for k in range(1, g.dim + 1):
        lines.append(f"d e{k} = {form_text(g.differential(k))}")
    if b is not None:
        h = " ".join(str(i) for i in b.horizontal)
        v = " ".join(str(i) for i in b.vertical)
        lines.append(f"qc horizontal {h} vertical {v} scale {b.scale}")
        for r, omega in enumerate(b.omegas, start=1):
            lines.append(f"omega{r} = {form_text(omega)}")
    if doc.flag is not None:
        lines.append("flag = " + " | ".join(", ".join(level) for level in flag_texts(doc.flag)))
    return "\n".join(lines) + "\n"
