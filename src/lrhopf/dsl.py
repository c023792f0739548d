"""A small declaration language for structures, and an expression parser
for elements of the enveloping algebra.

A structure file has up to four blocks:

    algebra A { gens: y primitive, t group_like invertible }
    lie g {
        basis: x1, x2;
        bracket [x1, x2] = x2;
    }
    action { x1(y) = y; }
    dual {
        basis: d1, d2;
        bracket [d1, d2] = d1;
        anchor d1(y) = 0;
    }

Statements are separated by semicolons, `#` starts a comment, whitespace
is free.  Bracket right-hand sides are linear in the basis names with
polynomial coefficients; action values are polynomials in the algebra
generators.  Unnamed brackets and actions default to zero.  The dual block
declares a second structure over the same algebra and is only needed by
the dual-pair commands.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import CommutativeAlgebra, Derivation, GeneratorDecl, LaurentPoly, _canon
from .enveloping import EnvElement
from .lie_rinehart import LieRinehartAlgebra


class ParseError(ValueError):
    pass


MAX_EXPONENT = 100
"""Largest absolute exponent accepted after `^`.  Powers are computed by
repeated multiplication and a power of a basis letter is a word of that
length, so a larger exponent is refused as an input error (line:col)
before any work is done, instead of hanging or exhausting the stack."""

MAX_WORD_LENGTH = 128
"""Longest word a product or power of enveloping algebra elements may
produce.  Exponents are capped one `^` at a time, so nested powers such as
`(x1^100)^100` would otherwise build words of length 10,000; the length of
the result (the sum of the factors' filtration degrees, or the degree times
the exponent) is checked before multiplying, and a longer one is refused
as an input error at the operator (line:col)."""

MAX_TERMS = 5000
"""Most pairs of terms (a rational times a monomial of A times a normal
word) one product of enveloping algebra elements may multiply.  The
factors of one power share this budget: a power is multiplied out one
factor at a time, and the pairs of every factor so far count, so
`(E11+E12+E21+E22+y1)^40` on gl2 and `(x1+x2)^100` on aff2, within the
limits above, are refused at the operator (line:col) before the power's
total work grows past the budget."""

MAX_INVERSIONS = 5000
"""Most letter pairs one product of enveloping algebra elements may have to
reorder: summed over each pair of a term of the left factor and a term of
the right one (a normal word with its coefficient), the pairs of a letter
of the left word and a letter of the right word below it.  Rewriting
swaps each such pair at least once, and a swap adds bracket terms that
are rewritten in turn, so a product of reversed words can cost far more
than its number of terms: on gl2 the second product of
`E22^16*E21^16*E12^16*E11^16` has 6,528 such pairs and took 4.5 s, and
its last 426,176; `h^40*f^40*e^40` on sl2 ran for 50 s, its last product
having 98,400.  `x2^64*x1^64` on aff2 (4,096, 0.13 s) stays within the
limit, and the products that MAX_TERMS refuses reach it first (2,300 for
`(x1+x2)^100`).  Checked after MAX_TERMS, and refused at the operator
(line:col)."""

MAX_NESTING = 100
"""Deepest nesting of parentheses an expression may use.  The parser and
the evaluator recurse once per level (long flat sums and products, and
runs of minus signs, do not recurse), so deeper input is refused as an
input error at the parenthesis (line:col) before it exhausts the stack."""


# -- tokens --------------------------------------------------------------------

_SYMBOLS = "{}()[],;:=+-*^/"


# kind: "ident" | "int" | the symbol itself | "end"
Token = namedtuple("Token", "kind text line col")


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            while i < n and text[i] == "'":
                i += 1
            tokens.append(Token("ident", text[start:i], line, col))
            col += i - start
            continue
        if ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"line {line}:{col}: unexpected character {ch!r}")
    tokens.append(Token("end", "", line, col))
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open at the current position

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            want = what or kind
            raise ParseError(
                f"line {t.line}:{t.col}: expected {want}, found {t.text or 'end of input'!r}"
            )
        return self.next()

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None


# -- expressions -----------------------------------------------------------------
#
# expr   := term (("+" | "-") term)*
# term   := factor (("*" factor) | ("/" INT))*
# factor := "-" factor | atom ["^" ["-"] INT]     (INT <= MAX_EXPONENT)
# atom   := INT | IDENT | "(" expr ")"             (nested <= MAX_NESTING)


def _parse_expr(ts: _Stream):
    node = _parse_term(ts)
    while ts.peek().kind in ("+", "-"):
        op = ts.next().kind
        rhs = _parse_term(ts)
        node = (("add" if op == "+" else "sub"), node, rhs)
    return node


def _parse_term(ts: _Stream):
    node = _parse_factor(ts)
    while True:
        star = ts.accept("*")
        if star:
            node = ("mul", node, _parse_factor(ts), (star.line, star.col))
        elif ts.peek().kind == "/":
            ts.next()
            t = ts.expect("int", "an integer denominator")
            d = _int_value(t)
            if d == 0:
                raise ParseError(f"line {t.line}:{t.col}: division by zero")
            node = ("scale", node, _canon(Fraction(1, d)))
        else:
            return node


def _parse_factor(ts: _Stream):
    negated = False
    while ts.accept("-"):
        negated = not negated
    node = _parse_atom(ts)
    caret = ts.accept("^")
    if caret:
        negative = ts.accept("-") is not None
        t = ts.expect("int", "an integer exponent")
        # the length test keeps int() away from huge digit strings
        if len(t.text.lstrip("0")) > len(str(MAX_EXPONENT)) or _int_value(t) > MAX_EXPONENT:
            raise ParseError(
                f"line {t.line}:{t.col}: exponent above the limit of {MAX_EXPONENT}"
            )
        e = _int_value(t)
        node = ("pow", node, -e if negative else e, (caret.line, caret.col))
    return ("neg", node) if negated else node


def _parse_atom(ts: _Stream):
    t = ts.peek()
    if t.kind == "int":
        ts.next()
        return ("num", _int_value(t))
    if t.kind == "ident":
        ts.next()
        return ("name", t.text, t.line, t.col)
    if t.kind == "(":
        ts.next()
        if ts.depth == MAX_NESTING:
            _refuse((t.line, t.col), f"parentheses nested deeper than the limit of "
                    f"{MAX_NESTING}")
        ts.depth += 1
        node = _parse_expr(ts)
        ts.expect(")")
        ts.depth -= 1
        return node
    raise ParseError(
        f"line {t.line}:{t.col}: expected an expression, found {t.text or 'end of input'!r}"
    )


def parse_expression(text: str):
    """Parse a standalone expression; returns the syntax tree."""
    ts = _Stream(tokenize(text))
    node = _parse_expr(ts)
    t = ts.peek()
    if t.kind != "end":
        raise ParseError(f"line {t.line}:{t.col}: trailing input {t.text!r}")
    return node


def _word_length_after(op, left, right) -> int:
    """Length of the longest word of `left * right` or `left ** right` for
    enveloping algebra elements; -1 when there are none.  Leading terms
    multiply like the symmetric algebra over a domain, so this is exact."""
    if op == "mul" and isinstance(left, EnvElement) and isinstance(right, EnvElement):
        return left.filtration_degree() + right.filtration_degree()
    if op == "pow" and isinstance(left, EnvElement) and isinstance(right, int):
        return left.filtration_degree() * right
    return -1


def _refuse(where, message):
    line, col = where
    raise ParseError(f"line {line}:{col}: {message}")


def _int_value(t: Token) -> int:
    """The value of an integer token; a literal too long for int() to
    convert is an input error at the token."""
    try:
        return int(t.text)
    except ValueError:
        _refuse((t.line, t.col), f"integer literal of {len(t.text)} digits is too long")


def _count_pairs(left, right, where, used=0) -> int:
    """`used` plus the pairs of terms of the product `left * right` of
    enveloping algebra elements; refused at `where` above MAX_TERMS."""
    sizes = [sum(len(c.terms) for c in u.terms.values()) for u in (left, right)]
    total = used + sizes[0] * sizes[1]
    if total > MAX_TERMS:
        _refuse(where, f"a product of {total} pairs of terms is above "
                f"the limit of {MAX_TERMS}")
    return total


def _count_inversions(left, right, where) -> None:
    """Refuse at `where` the product `left * right` of enveloping algebra
    elements when it has more than MAX_INVERSIONS letter pairs to reorder.
    The count is bilinear in the letters, so it sums per letter: each
    letter of the left words times the right words' letters below it."""
    counts = []
    for u in (left, right):
        c = [0] * u.structure.rank
        for w in u.terms:
            for letter in w:
                c[letter] += 1
        counts.append(c)
    total = below = 0
    for above, under in zip(*counts):
        total += above * below
        below += under
    if total > MAX_INVERSIONS:
        _refuse(where, f"a product with {total} pairs of letters to reorder is above "
                f"the limit of {MAX_INVERSIONS}")


def _combine(op, left, right, where=None):
    if where is not None:
        length = _word_length_after(op, left, right)
        if length > MAX_WORD_LENGTH:
            _refuse(where, f"a word of length {length} is above the limit of "
                    f"{MAX_WORD_LENGTH}")
    try:
        if op == "add":
            result = left + right
        elif op == "sub":
            result = left - right
        elif op == "mul":
            if isinstance(left, EnvElement) and isinstance(right, EnvElement):
                _count_pairs(left, right, where)
                _count_inversions(left, right, where)
            result = left * right
        elif isinstance(left, EnvElement) and right < 0 and not any(left.terms):
            # a pure coefficient (the empty word only): a unit has negative powers
            a = left.terms.get((), left.algebra.zero())
            result = EnvElement.from_poly(left.structure, a ** right)
        elif isinstance(left, EnvElement) and isinstance(right, int) and right >= 0:
            result = EnvElement.one(left.structure)  # as EnvElement.__pow__ does
            used = 0  # the factors share one budget
            for _ in range(right):
                used = _count_pairs(result, left, where, used)
                _count_inversions(result, left, where)
                result = result * left
        else:
            result = left ** right
    except ParseError:
        raise
    except (ValueError, TypeError, AttributeError) as exc:
        raise ParseError(f"cannot combine these values: {exc}") from None
    if result is NotImplemented:
        raise ParseError("cannot combine these values")
    return result


def eval_ast(node, env, *, constant):
    """Evaluate a syntax tree over any arena.

    `env` maps names to values; `constant` embeds a number literal, an
    int.  Values must support +, -, *, and ** with integer exponents.  A
    left-nested chain of binary operators is walked down to its first
    operand and folded back up, so only nesting that the parser bounds
    recurses.
    """
    chain = []
    while node[0] in ("add", "sub", "mul", "scale"):
        chain.append(node)
        node = node[1]
    kind = node[0]
    if kind == "num":
        value = constant(node[1])
    elif kind == "name":
        _, name, line, col = node
        try:
            value = env[name]
        except KeyError:
            raise ParseError(f"line {line}:{col}: unknown name {name!r}") from None
    elif kind == "neg":
        value = -eval_ast(node[1], env, constant=constant)
    elif kind == "pow":
        value = _combine("pow", eval_ast(node[1], env, constant=constant), node[2], node[3])
    else:
        raise AssertionError(f"unhandled node {kind}")
    for kind, _, right, *where in reversed(chain):
        if kind == "scale":
            value = _combine("mul", value, right)
        else:
            value = _combine(kind, value, eval_ast(right, env, constant=constant), *where)
    return value


# -- structure files ---------------------------------------------------------------


class LieBlock:
    def __init__(self, basis: list):
        self.basis = basis
        self.brackets = []  # (name_a, name_b, ast, line)
        self.anchors = []  # (basis_name, gen_name, ast, line)


class StructureFile:
    def __init__(self, algebra: CommutativeAlgebra, main: LieBlock,
                 dual: LieBlock | None = None):
        self.algebra = algebra
        self.main = main
        self.dual = dual

    def build(self, validate: bool = False):
        """Construct the structure (and the dual one when declared).
        Validation is left to the check batteries by default."""
        S = _build_structure(self.algebra, self.main, validate)
        D = _build_structure(self.algebra, self.dual, validate) if self.dual else None
        return S, D


_MARKERS = {"primitive", "group_like", "invertible"}


def _parse_algebra_block(ts: _Stream) -> CommutativeAlgebra:
    ts.expect("ident")  # the algebra's name, informational
    ts.expect("{")
    gens = []
    if ts.peek().kind == "ident" and ts.peek().text == "gens":
        ts.next()
        ts.expect(":")
        while ts.peek().kind == "ident":
            name_tok = ts.expect("ident", "a generator name")
            invertible = False
            hopf_kind = "none"
            while ts.peek().kind == "ident" and ts.peek().text in _MARKERS:
                marker = ts.next().text
                if marker == "invertible":
                    invertible = True
                else:
                    hopf_kind = marker
            try:
                gens.append(
                    GeneratorDecl(name_tok.text, invertible=invertible, hopf_kind=hopf_kind)
                )
            except ValueError as exc:
                raise ParseError(
                    f"line {name_tok.line}:{name_tok.col}: {exc}"
                ) from None
            if not ts.accept(","):
                break
        ts.accept(";")
    ts.expect("}")
    try:
        return CommutativeAlgebra(gens)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_lie_body(ts: _Stream, *, named: bool, with_anchor_keyword: bool) -> LieBlock:
    if named:
        ts.expect("ident")  # block name, informational
    ts.expect("{")
    block = LieBlock(basis=[])
    kw = ts.expect("ident", "'basis'")
    if kw.text != "basis":
        raise ParseError(f"line {kw.line}:{kw.col}: a block must start with 'basis:'")
    ts.expect(":")
    while True:
        t = ts.expect("ident", "a basis name")
        block.basis.append(t.text)
        if not ts.accept(","):
            break
    ts.expect(";")
    while ts.peek().kind == "ident":
        kw = ts.next()
        if kw.text == "bracket":
            ts.expect("[")
            a = ts.expect("ident", "a basis name").text
            ts.expect(",")
            b = ts.expect("ident", "a basis name").text
            ts.expect("]")
            ts.expect("=")
            ast = _parse_expr(ts)
            block.brackets.append((a, b, ast, kw.line))
            ts.expect(";")
        elif with_anchor_keyword and kw.text == "anchor":
            name = ts.expect("ident", "a basis name").text
            ts.expect("(")
            gen = ts.expect("ident", "an algebra generator").text
            ts.expect(")")
            ts.expect("=")
            ast = _parse_expr(ts)
            block.anchors.append((name, gen, ast, kw.line))
            ts.expect(";")
        else:
            raise ParseError(
                f"line {kw.line}:{kw.col}: unexpected statement {kw.text!r}"
            )
    ts.expect("}")
    return block


def _parse_action_block(ts: _Stream, block: LieBlock):
    ts.expect("{")
    while ts.peek().kind == "ident":
        name_tok = ts.next()
        ts.expect("(")
        gen = ts.expect("ident", "an algebra generator").text
        ts.expect(")")
        ts.expect("=")
        ast = _parse_expr(ts)
        block.anchors.append((name_tok.text, gen, ast, name_tok.line))
        ts.expect(";")
    ts.expect("}")


def parse_structure_file(text: str) -> StructureFile:
    ts = _Stream(tokenize(text))
    algebra = None
    main = None
    dual = None
    while ts.peek().kind != "end":
        kw = ts.expect("ident", "a block keyword")
        if kw.text == "algebra":
            if algebra is not None:
                raise ParseError(f"line {kw.line}: duplicate algebra block")
            algebra = _parse_algebra_block(ts)
        elif kw.text == "lie":
            if main is not None:
                raise ParseError(f"line {kw.line}: duplicate lie block")
            main = _parse_lie_body(ts, named=True, with_anchor_keyword=False)
        elif kw.text == "action":
            if main is None:
                raise ParseError(f"line {kw.line}: action block before the lie block")
            _parse_action_block(ts, main)
        elif kw.text == "dual":
            if dual is not None:
                raise ParseError(f"line {kw.line}: duplicate dual block")
            dual = _parse_lie_body(ts, named=False, with_anchor_keyword=True)
        else:
            raise ParseError(
                f"line {kw.line}:{kw.col}: unknown block {kw.text!r}"
            )
    if algebra is None:
        raise ParseError("missing algebra block")
    if main is None:
        raise ParseError("missing lie block")
    return StructureFile(algebra, main, dual)


# -- building ------------------------------------------------------------------------


class _Vec:
    """Linear combination of basis elements during evaluation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __add__(self, other):
        if isinstance(other, _Vec):
            return _Vec([a + b for a, b in zip(self.coeffs, other.coeffs)])
        if isinstance(other, LaurentPoly) and other.is_zero():
            return self
        return NotImplemented

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, _Vec):
            return self + (-other)
        if isinstance(other, LaurentPoly) and other.is_zero():
            return self
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _Vec([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (LaurentPoly, Fraction, int)):
            return _Vec([c * other for c in self.coeffs])
        raise ParseError("bracket values must be linear in the basis elements")

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        raise ParseError("basis elements cannot be raised to powers here")


def _build_structure(algebra: CommutativeAlgebra, block: LieBlock,
                     validate: bool) -> LieRinehartAlgebra:
    basis = block.basis
    if len(set(basis)) != len(basis):
        raise ParseError("basis names must be distinct")
    index = {name: i for i, name in enumerate(basis)}
    rank = len(basis)

    env = {g.name: algebra.gen(i) for i, g in enumerate(algebra.gens)}
    for i, name in enumerate(basis):
        if name in env:
            raise ParseError(f"name {name!r} is both a generator and a basis element")
        unit = [algebra.zero()] * rank
        unit[i] = algebra.one()
        env[name] = _Vec(unit)

    table = {}
    for a, b, ast, line in block.brackets:
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise ParseError(f"line {line}: unknown basis element {missing!r}")
        i, j = index[a], index[b]
        if i == j:
            raise ParseError(f"line {line}: bracket of {a!r} with itself")
        value = eval_ast(ast, env, constant=algebra.const)
        if isinstance(value, LaurentPoly):
            if not value.is_zero():
                raise ParseError(
                    f"line {line}: bracket value must be a combination of basis elements"
                )
            coeffs = [algebra.zero()] * rank
        else:
            coeffs = value.coeffs
        key = (i, j) if i < j else (j, i)
        if key in table:
            raise ParseError(f"line {line}: bracket [{a}, {b}] given twice")
        table[key] = coeffs if i < j else [-c for c in coeffs]

    values = [[algebra.zero()] * algebra.ngens for _ in range(rank)]
    seen = set()
    for name, gen, ast, line in block.anchors:
        if name not in index:
            raise ParseError(f"line {line}: unknown basis element {name!r}")
        if gen not in algebra.index:
            raise ParseError(f"line {line}: unknown algebra generator {gen!r}")
        if (name, gen) in seen:
            raise ParseError(f"line {line}: action of {name!r} on {gen!r} given twice")
        seen.add((name, gen))
        value = eval_ast(ast, env, constant=algebra.const)
        if isinstance(value, _Vec):
            raise ParseError(f"line {line}: action values must be polynomials")
        values[index[name]][algebra.index[gen]] = value

    anchor = [Derivation(algebra, vals) for vals in values]
    return LieRinehartAlgebra(algebra, basis, table, anchor, validate=validate)


def parse_env_element(text: str, S: LieRinehartAlgebra) -> EnvElement:
    """Evaluate an expression in the enveloping algebra: generator names
    and basis names multiply in the order written."""
    env = {}
    for i, g in enumerate(S.algebra.gens):
        env[g.name] = EnvElement.from_poly(S, S.algebra.gen(i))
    for i, name in enumerate(S.basis_names):
        env[name] = EnvElement.generator(S, i)
    ast = parse_expression(text)

    def constant(q):
        return EnvElement.from_poly(S, S.algebra.const(q))

    value = eval_ast(ast, env, constant=constant)
    if not isinstance(value, EnvElement):
        value = EnvElement.from_poly(S, value)
    return value
