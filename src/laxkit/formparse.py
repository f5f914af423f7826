"""Text syntax for formulas.

    formula := disj (("(+)" | "(-)") NUMBER)*
    disj    := conj ("\\/" conj)*
    conj    := atom ("/\\" atom)*
    atom    := NUMBER | NAME | NAME "(" formula ("," formula)* ")"
             | NAME "(" ")" | "(" formula ")"

NUMBER is 'p/q' or an exact decimal; both parse to the same rational, and
the original spelling is kept on the node so printing a parsed formula
reproduces the input up to whitespace.  NAME is an identifier (dots,
dashes, digits, and slashes not starting '/\\', allowed after the first
letter, so label modalities such as 'at-1/5' have a text form); '<>' and
'[]' are accepted as aliases for the sup/inf modalities.  The structural
modality has no text form and lives in JSON only.  A formula nests at most
jsonio.MAX_NESTING levels deep, counting parentheses as levels, the same
bound JSON files obey.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import LaxkitError, parse_unit
from .jsonio import MAX_NESTING
from .logic import ATOM, FORMULA_KINDS, NAME_PATTERN, SHIFT, Formula

# Binary operators by their text; each formula class that has one sets it
# (`op`) together with its precedence (`level`).
_OPERATORS = {cls.op: cls for cls in FORMULA_KINDS.values() if hasattr(cls, "op")}

TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<op>{ops})
  | (?P<number>\d+(\.\d+)?(/\d+)?)
  | (?P<name>{name})
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
""".format(ops="|".join(map(re.escape, _OPERATORS)), name=NAME_PATTERN),
    re.VERBOSE,
)


class FormulaSyntaxError(LaxkitError):
    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; each rule returns its formula and the depth of
    that formula's tree, and `groups` counts the parentheses open around
    the current token."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.groups = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def formula(self, level: int = SHIFT):
        """A formula whose operators bind at least as tightly as level; each
        level associates to the left, and a shift's right operand is a
        NUMBER."""
        if level == ATOM:
            return self.atom()
        out, depth = self.formula(level + 1)
        while self.peek()[0] == "op" and _OPERATORS[self.peek()[1]].level == level:
            _, text, pos = self.take("op")
            if level == SHIFT:
                _, number, at = self.take("number")
                out = _OPERATORS[text](out, self._unit(number, at), number)
            else:
                right, right_depth = self.formula(level + 1)
                out, depth = _OPERATORS[text](out, right), max(depth, right_depth)
            depth = _deeper(depth, pos)
        return out, depth

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "number":
            self.take("number")
            return FORMULA_KINDS["const"](self._unit(text, pos), text), 1
        if kind == "name":
            self.take("name")
            args = []  # (formula, depth) pairs
            if self.peek()[0] == "lpar":
                self.open()
                if self.peek()[0] != "rpar":
                    args.append(self.formula())
                    while self.peek()[0] == "comma":
                        self.take("comma")
                        args.append(self.formula())
                self.close()
            depth = max((d for _, d in args), default=0)
            return FORMULA_KINDS["modal"](text, tuple(f for f, _ in args)), _deeper(depth, pos)
        if kind == "lpar":
            self.open()
            out = self.formula()
            self.close()
            return out
        raise FormulaSyntaxError(f"expected a formula, found {text!r}", pos)

    def open(self):
        _, _, pos = self.take("lpar")
        self.groups += 1
        if self.groups > MAX_NESTING:
            raise FormulaSyntaxError(_TOO_DEEP, pos)

    def close(self):
        self.take("rpar")
        self.groups -= 1

    @staticmethod
    def _unit(text: str, pos: int) -> Fraction:
        try:
            return parse_unit(text)
        except LaxkitError as exc:
            raise FormulaSyntaxError(str(exc), pos) from None


_TOO_DEEP = f"formula nested deeper than {MAX_NESTING} levels"


def _deeper(depth: int, pos: int) -> int:
    """The depth of a node over children at most depth deep."""
    if depth >= MAX_NESTING:
        raise FormulaSyntaxError(_TOO_DEEP, pos)
    return depth + 1


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    out, _ = parser.formula()
    parser.take("end")
    return out


def print_formula(formula: Formula) -> str:
    """Render to the text syntax.

    Compound operands of the constant shifts are parenthesized, lattice
    connectives carry minimal parentheses.  Reparsing a formula within the
    nesting bound always gives back an equal formula, and parsing
    canonically parenthesized text then printing reproduces it up to
    whitespace (redundant parentheses are the one thing the syntax does not
    remember).  Structural-modality and negation nodes, and modality names
    that are not one NAME token, have no text form (raises LaxkitError);
    serialize those to JSON.
    """
    return formula.text()
