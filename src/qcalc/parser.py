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

A `d eK` or `omegaR` line whose right side is a plain sum of signed terms,
each an optional coefficient times a 2-digit monomial, is read in one pass
(`_read_sum`); every other line, and every line that pass does not take in
full, goes through the tokenizer and the recursive descent, which raise
every ParseError.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .exterior import MAX_DIM, Flag, Form, LieAlgebra, substitute_form
from .qc import QCFrame
from .scalars import ZERO, Poly, Scalar, Value, is_zero, poly, render, replace, substitute, variable

_TOKEN_RE = re.compile(r"(?P<NUMBER>\d+)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<SYM>[-+*/^()=,|])|\S")
_MONO_RE = re.compile(r"^e([1-9][0-9]*)$")
# the head of a line _read_sum may take, and one term of its sum: a sign, a coefficient
# N, (±R), (±R p) or (±R ± R p) with R = N or N/M and p an identifier, and a monomial
_SUM_HEAD_RE = re.compile(r"\s*(?:d\s+e([1-9])|omega([123]))\s*=")
_R = r"([0-9]+)(?:\s*/\s*([0-9]+))?"
_SUM_TERM_RE = re.compile(
    rf"\s*([+-]?)\s*(?:([0-9]+)|\(\s*([+-]?)\s*{_R}\s*(?:([+-])\s*{_R}\s*)?([A-Za-z_][A-Za-z0-9_]*)?\s*\))?"
    r"\s*e([1-9])([1-9])\s*"
)
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
        # no NUMBER, IDENT or END token has a symbol's text, so the text decides
        return self.toks[self.pos].text in texts

    def expect_end(self) -> None:
        t = self.peek()
        if t.kind != "END":
            raise ParseError(f"unexpected trailing {t.text!r}", t.line, t.col)

    # values are Scalars or Forms; combination rules live in the helpers below

    def expression(self):
        """Sum of terms, added pairwise by _add."""
        negate = False
        if self.at_sym("-"):
            self.next()
            negate = True
        elif self.at_sym("+"):
            self.next()
        value = self.term()
        if negate:
            value = -value
        while self.at_sym("+", "-"):
            op = self.next()
            rhs = self.term()
            value = self._add(value, -rhs if op.text == "-" else rhs, op)
        return value

    def term(self):
        value = self.factor()
        while True:
            op = self.peek()
            if op.text in ("*", "/"):
                self.next()
                rhs = self.factor()
                value = self._mul(value, rhs, op) if op.text == "*" else self._div(value, rhs, op)
            elif op.kind in ("NUMBER", "IDENT") or op.text == "(":
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
                        raise ParseError(f"index {i} out of range for dimension {self.dim}", t.line, t.col)
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

    def _add(self, a, b, tok: Token):
        """a + b for two scalars, or two forms of one degree.  Otherwise a zero
        scalar or form gives way to a form; a form cancelled to zero stays a
        form, so a nonzero scalar does not add to it."""
        a_form, b_form = isinstance(a, Form), isinstance(b, Form)
        if a_form == b_form and (not a_form or a.degree == b.degree):
            return a + b
        for zero, other in ((a, b), (b, a)):
            if isinstance(other, Form) and (zero.is_zero if isinstance(zero, Form) else is_zero(zero)):
                return other
        what = f"a degree-{a.degree} and a degree-{b.degree} form" if a_form and b_form else "a scalar and a form"
        raise ParseError(f"cannot add {what}", tok.line, tok.col)

    def _mul(self, a, b, tok: Token):
        return self._bounded(a.wedge(b) if isinstance(a, Form) and isinstance(b, Form) else a * b, tok)

    def _bounded(self, product, tok: Token):
        """The product, unless its degree in the parameter is above MAX_EXPONENT;
        checked on every product, so that a run of factors cannot grow it."""
        coeffs = product.terms.values() if isinstance(product, Form) else (product,)
        degree = max((c.degree for c in coeffs if isinstance(c, Poly)), default=0)
        if degree > MAX_EXPONENT:
            raise ParseError(f"degree {degree} in {self.param} is above {MAX_EXPONENT}", tok.line, tok.col)
        return product

    def _div(self, a, b, tok: Token):
        if isinstance(b, (Form, Poly)):
            raise ParseError("can only divide by a rational", tok.line, tok.col)
        if b == 0:
            raise ParseError("division by zero", tok.line, tok.col)
        return (1 / b) * a if isinstance(a, Form) else a / b

    def _pow(self, a, b, tok: Token):
        if isinstance(a, Form) and isinstance(b, Form):
            return self._bounded(a.wedge(b), tok)
        if not isinstance(a, Form) and isinstance(b, Fraction) and b.denominator == 1 and b >= 0:
            degree = b * (a.degree if isinstance(a, Poly) else 1)
            if degree > MAX_EXPONENT:
                what = f"exponent {b}" if degree == b else f"degree {render(degree)} in {a.var}"
                raise ParseError(f"{what} is above {MAX_EXPONENT}", tok.line, tok.col)
            out: Scalar = Fraction(1)
            for _ in range(int(b)):
                out = out * a
            return out
        raise ParseError("'^' joins two forms or raises a scalar to an integer", tok.line, tok.col)

    def form_expression(self, degree: int, what: str) -> Form:
        """The expression, a form of the given degree; a zero scalar or a zero
        form of any degree is the zero form of that degree."""
        value = self.expression()
        is_form = isinstance(value, Form)
        if value.is_zero if is_form else is_zero(value):
            return Form.zero(self.dim, degree)
        if not is_form or value.degree != degree:
            got = f", got degree {value.degree}" if is_form else ""
            raise ParseError(f"{what} must be a degree-{degree} form{got}", self.peek().line, 1)
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
        sum_head = _SUM_HEAD_RE.match(raw) if header is not None else None
        if sum_head is not None:
            k, r = sum_head.groups()
            into, key = (diffs, int(k)) if k else (omegas, int(r))
            if (key <= header[1] if k else split is not None) and key not in into:
                form = _read_sum(raw, sum_head.end(), header[1], header[2])
                if form is not None:
                    into[key] = form
                    last_line = lineno
                    continue
        tokens = _tokenize_line(raw, lineno)
        if tokens[0].kind == "END":
            continue
        last_line = lineno
        if header is None:
            header = _parse_header(tokens)
            continue
        head = tokens[0]
        p = _LineParser(tokens, header[1], header[2])
        if head.text in ("d", "omega1", "omega2", "omega3"):
            _parse_two_form(p, split, diffs, omegas)
        elif head.text == "qc":
            split = _parse_qc(p, split)
        elif head.text == "flag":
            flag = _parse_flag(p, flag)
        else:
            raise ParseError(f"expected 'd', 'qc', 'omegaN' or 'flag', found {head.text!r}", head.line, head.col)
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


def _read_sum(line: str, pos: int, dim: int, param: str | None) -> Form | None:
    """The 2-form line[pos:] spells, when it is a sum of _SUM_TERM_RE terms, the
    first with an optional sign and each other with one, over two distinct
    indices up to dim, with param the only identifier.  None otherwise, and for
    a zero denominator or a number past int()'s digit limit: the descent then
    reads the line and raises its ParseError."""
    terms: dict[tuple[int, int], Scalar] = {}
    end, first = len(line), True
    try:
        while first or pos < end:
            m = _SUM_TERM_RE.match(line, pos)
            if m is None or not (first or m[1]):
                return None
            first, pos = False, m.end()
            sign, n, s0, n0, m0, s1, n1, m1, ident, i, j = m.groups()
            i, j = int(i), int(j)
            if i == j or i > dim or j > dim or (ident is not None and ident != param):
                return None
            if n is not None:
                c0, c1 = Fraction(int(n)), ZERO
            elif n0 is None:
                c0, c1 = Fraction(1), ZERO
            else:
                c0 = _signed(s0, n0, m0)
                c1 = ZERO if s1 is None else _signed(s1, n1, m1)
                if ident is None:
                    if s1 is not None:
                        return None
                elif s1 is None:
                    c0, c1 = ZERO, c0
            if (sign == "-") != (i > j):
                c0, c1 = -c0, -c1
            key = (i, j) if i < j else (j, i)
            coeff = poly(param, c0, c1) if c1 else c0
            terms[key] = terms[key] + coeff if key in terms else coeff
    except (ValueError, ZeroDivisionError):  # int() past sys.get_int_max_str_digits(), or N/0
        return None
    return Form.make(dim, 2, terms)


def _signed(sign: str, num: str, den: str | None) -> Fraction:
    q = Fraction(int(num), int(den)) if den else Fraction(int(num))
    return -q if sign == "-" else q


def _parse_header(tokens: list[Token]) -> tuple[str, int, str | None]:
    p = _LineParser(tokens, MAX_DIM, None)
    p.expect("IDENT", "algebra")
    name = p.expect("IDENT").text
    p.expect("IDENT", "dim")
    t, dim = p.peek(), p.number()
    if not 1 <= dim <= MAX_DIM:
        raise ParseError(f"dimension {dim} outside 1..{MAX_DIM}", t.line, t.col)
    param = None
    if p.peek().text == "param":
        p.next()
        t = p.expect("IDENT")
        if _MONO_RE.match(t.text):
            raise ParseError(f"parameter {t.text!r} is spelled like a monomial", t.line, t.col)
        param = t.text
    p.expect_end()
    return name, dim, param


def _parse_two_form(p: _LineParser, split: tuple | None, diffs: dict[int, Form], omegas: dict[int, Form]) -> None:
    """A `d eK = ...` line into diffs[K], or an `omegaR = ...` line into omegas[R]."""
    t = p.next()
    if t.text == "d":
        t = p.expect("IDENT")
        m = re.match(r"^e([1-9])$", t.text)
        if not m or int(m.group(1)) > p.dim:
            raise ParseError(f"expected a covector e1..e{p.dim}", t.line, t.col)
        into, key, what, duplicate = diffs, int(m.group(1)), f"d {t.text}", f"differential for {t.text}"
    else:
        if split is None:
            raise ParseError("omega lines must follow the qc line", t.line, t.col)
        into, key, what = omegas, int(t.text[-1]), t.text
        duplicate = what
    if key in into:
        raise ParseError(f"duplicate {duplicate}", t.line, t.col)
    p.expect("SYM", "=")
    into[key] = p.form_expression(2, what)
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
    if p.peek().kind != "END":
        p.expect("IDENT", "scale")
        scale = p.rational()
    p.expect_end()
    return horizontal, vertical, scale


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
        raise ParseError(f"flag must list {p.dim} levels, got {len(levels)}", t.line, t.col)
    for i, level in enumerate(levels, start=1):
        if len(level) != i:
            raise ParseError(f"flag level {i} must list {i} covectors, got {len(level)}", t.line, t.col)
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
    return sign, render(a) if a.denominator == 1 else f"({render(a)})"


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
        lines.append(f"qc horizontal {h} vertical {v} scale {render(b.scale)}")
        for r, omega in enumerate(b.omegas, start=1):
            lines.append(f"omega{r} = {form_text(omega)}")
    if doc.flag is not None:
        lines.append("flag = " + " | ".join(", ".join(level) for level in flag_texts(doc.flag)))
    return "\n".join(lines) + "\n"
