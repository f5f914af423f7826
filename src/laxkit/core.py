"""Exact arithmetic on the unit interval and the algebra of fuzzy relations.

All values are `fractions.Fraction` instances in [0, 1]; nothing in this
module ever rounds.  The two saturating operations are

    sat_add(x, y) = min(x + y, 1)        (truncated addition)
    sat_sub(x, y) = max(x - y, 0)        (truncated subtraction)

A fuzzy relation is a dense matrix between two finite carriers.  The crisp
reading follows the convention that 0 means "related" and 1 means
"unrelated", so relation composition uses inf/sat_add and the diagonal is
the 0/1 matrix with 0 on the diagonal.  Infima over an empty index range
are 1 and suprema are 0 (the lattice bounds of the unit interval).

Most values arriving here are Fractions already, so the unit check reads
their numerator and denominator and builds a Fraction only for other
input types.  Every relation carries one integer form, FuzzyRel.scaled.
Composition runs on its inputs' forms over the lcm of their denominators
and builds one Fraction per output entry; the hemimetric and pseudometric
checks run on the metric's form and build no relation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add
from typing import Callable, Hashable, Iterable, Mapping

ZERO = Fraction(0)
ONE = Fraction(1)


class LaxkitError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(LaxkitError):
    """Shapes, carriers or grammar nodes do not fit together."""


def as_unit(value) -> Fraction:
    """Coerce to an exact Fraction and check it lies in [0, 1].

    A Fraction is returned as it is; its denominator is always positive.
    """
    x = value if isinstance(value, Fraction) else Fraction(value)
    if not 0 <= x.numerator <= x.denominator:
        raise StructureError(f"value {x} outside the unit interval")
    return x


def parse_unit(text: str) -> Fraction:
    """Parse 'p/q' or an exact decimal string ('0.2' becomes 1/5)."""
    try:
        x = Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise StructureError(f"cannot parse rational {text!r}: {exc}") from None
    return as_unit(x)


def format_ratio(numerator: int, denominator: int) -> str:
    """Render a reduced ratio (denominator > 0) as 'p/q', or 'p' when the
    denominator is 1: the text of str(Fraction(numerator, denominator)).

    An integer longer than the interpreter's limit on integer text
    (sys.get_int_max_str_digits) is a StructureError naming its length:
    parse_unit could not read such a value back either.
    """
    try:
        return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    except ValueError:
        digits = max(_digits(numerator), _digits(denominator))
        raise StructureError(
            f"a value with a {digits}-digit integer exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits for integer text") from None


def _digits(n: int) -> int:
    """The number of decimal digits of abs(n), for n != 0, without its text."""
    n = abs(n)
    count = n.bit_length() * 1233 >> 12  # 1233 / 4096 < log10(2): a lower bound
    while n >= 10 ** count:
        count += 1
    return count


def format_unit(x: Fraction) -> str:
    """Render as 'p/q', or 'p' for integral values."""
    return format_ratio(x.numerator, x.denominator)


def unit_over(numerator: int, den: int) -> Fraction:
    """numerator / den for 0 <= numerator <= den; the bounds are ZERO and ONE."""
    if numerator == den:
        return ONE
    return Fraction(numerator, den) if numerator else ZERO


def scaled_rows(rows) -> tuple:
    """(den, ints): den is the lcm of every entry's denominator (1 for no
    entries), and ints holds the rows as lists of the integers entry * den."""
    den = lcm(*{x.denominator for row in rows for x in row})
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


class IntBlock(tuple):
    """(den, rows), made as IntBlock((den, rows)): a block of rationals as
    integer rows over one positive denominator, entry [i][j] being
    rows[i][j] / den.  A bare tuple subclass, so making one runs no Python
    code."""

    __slots__ = ()


def sat_add(x: Fraction, y: Fraction) -> Fraction:
    return min(x + y, ONE)


def sat_sub(x: Fraction, y: Fraction) -> Fraction:
    return max(x - y, ZERO)


def sup(values: Iterable[Fraction]) -> Fraction:
    """Supremum with sup of the empty family = 0."""
    return max(values, default=ZERO)


def inf(values: Iterable[Fraction]) -> Fraction:
    """Infimum with inf of the empty family = 1."""
    return min(values, default=ONE)


@dataclass(frozen=True)
class Carrier:
    """An ordered finite list of distinct state identifiers.

    Elements are usually strings, but any hashable value is allowed (the
    logic machinery uses integer indices and formula objects as carrier
    elements).  Index order is fixed and reproducible.
    """

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise StructureError("carrier elements must be distinct")
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.elements)})

    @staticmethod
    def of(*elements) -> "Carrier":
        return Carrier(tuple(elements))

    def index(self, element) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise StructureError(f"{element!r} is not in the carrier") from None

    def __contains__(self, element) -> bool:
        return element in self._index

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class FuzzyRel:
    """A [0,1]-valued relation between two carriers, stored densely.

    values[i][j] relates source.elements[i] to target.elements[j].  Rows
    are stored as tuples of the Fractions `as_unit` returns for the
    entries; a tuple row of Fractions is kept as given.

    Builders whose rows are unit Fractions of the right shape by
    construction skip that check (see `_of_units`): `compose`, `converse`,
    `graph` and `diagonal` here, and the law suite's random relations.
    Every other `FuzzyRel(...)` is checked entry by entry.  `scaled` is
    the relation's one integer form, an IntBlock (den, rows) of tuple rows
    with values[i][j] == rows[i][j] / den: a relation built by construction
    carries the integers it was built on (den not necessarily the least),
    and a checked one builds its form off its Fractions when first read.
    `view` hands it to every block a lift reads.  `scaled` is not a field,
    so equality and hashing ignore it.
    """

    source: Carrier
    target: Carrier
    values: tuple

    def __post_init__(self):
        values = tuple(self.values)
        if len(values) != len(self.source):
            raise StructureError("row count does not match source carrier")
        width = len(self.target)
        rows = None
        for i, row in enumerate(values):
            if len(row) != width:
                raise StructureError("column count does not match target carrier")
            if type(row) is not tuple or not all(as_unit(v) is v for v in row):
                rows = rows or list(values)
                rows[i] = tuple(map(as_unit, row))
        object.__setattr__(self, "values", values if rows is None else tuple(rows))

    @classmethod
    def _of_units(cls, source: Carrier, target: Carrier, values: tuple,
                  scaled: IntBlock) -> "FuzzyRel":
        """A relation on tuple rows that are unit Fractions, len(source)
        rows of len(target) each, by construction: stored as given, with no
        check, and with `scaled`, the same entries as tuple rows of
        integers over one denominator."""
        rel = object.__new__(cls)
        object.__setattr__(rel, "source", source)
        object.__setattr__(rel, "target", target)
        object.__setattr__(rel, "values", values)
        object.__setattr__(rel, "scaled", scaled)
        return rel

    @cached_property
    def scaled(self) -> IntBlock:
        """A checked relation's integer form, over the lcm of its entries'
        denominators; `_of_units` sets the form in place of this."""
        den, rows = scaled_rows(self.values)
        return IntBlock((den, tuple(map(tuple, rows))))

    @staticmethod
    def from_function(source: Carrier, target: Carrier, fn: Callable) -> "FuzzyRel":
        rows = tuple(
            tuple(fn(a, b) for b in target.elements) for a in source.elements
        )
        return FuzzyRel(source, target, rows)

    @staticmethod
    def constant(source: Carrier, target: Carrier, value) -> "FuzzyRel":
        c = as_unit(value)
        row = (c,) * len(target)
        return FuzzyRel(source, target, (row,) * len(source))

    def at(self, a, b) -> Fraction:
        return self.values[self.source.index(a)][self.target.index(b)]

    def view(self) -> "RelView":
        """This relation as lifts read it, by element ids, with no warm
        starts: the view reads every block off the relation's `scaled`
        form (see RelView)."""
        view = RelView(self.source, _RowsById(self, self.values), {})
        den, rows = self.scaled
        view.scaled = den, _RowsById(self, rows)
        return view

    def is_square(self) -> bool:
        return self.source == self.target

    def entrywise_le(self, other: "FuzzyRel") -> bool:
        if self.source != other.source or self.target != other.target:
            raise StructureError("relations live between different carriers")
        return all(
            x <= y for row_x, row_y in zip(self.values, other.values)
            for x, y in zip(row_x, row_y)
        )


class _RowsById(dict):
    """FuzzyRel.view's rows by id, of the relation's Fractions or of its
    scaled integers, each built on its first read: lifts read few."""

    __slots__ = ("rel", "rows")

    def __init__(self, rel: FuzzyRel, rows: tuple):
        self.rel, self.rows = rel, rows

    def __missing__(self, a):
        rel = self.rel
        row = self[a] = dict(zip(rel.target.elements, self.rows[rel.source.index(a)]))
        return row


def scaled_entries(source, values) -> tuple:
    """(den, ints) for the dict rows values[x], x in source: den is the lcm
    of every entry's denominator, and ints[x][y] = values[x][y] * den."""
    rows = [(x, values[x]) for x in source]
    den = lcm(*{v.denominator for _, row in rows for v in row.values()})
    return den, {x: {y: v.numerator * (den // v.denominator) for y, v in row.items()}
                 for x, row in rows}


@dataclass(eq=False, slots=True)
class RelView:
    """A relation as every lift reads it: values[x][y] at the leaf values x, y
    of the lifted elements, and the transport warm starts of one chain or one
    check (see KantorovichD.lift_ratio).

    `source` holds the left ids whose rows, dicts keyed by the right ids,
    make up the relation.  The view also carries its entries as integers
    over one common denominator, `scaled` = (den, ints) with ints[x][y] =
    values[x][y] * den, which lifts read in blocks (see
    LiftingSpec.lift_block).  FuzzyRel.view hands the relation's own
    integer form to the view, its rows by id.  A view made of dict rows
    (a chain step's, logic.membership's) starts with `scaled` None, and
    scaled_entries builds the form once, off the rows at `source`, on the
    view's first block read.
    """

    source: object
    values: object
    transport_starts: dict
    scaled: tuple | None = field(default=None, init=False, repr=False)

    def block(self, xs, ys) -> IntBlock:
        """The entries at xs x ys (ys a list) as integers over the view's
        denominator.  An id outside the view is refused, also when the
        block is empty."""
        scaled = self.scaled
        if scaled is None:
            scaled = self.scaled = scaled_entries(self.source, self.values)
        den, ints = scaled
        try:
            return IntBlock((den, [[row[y] for y in ys] for row in map(ints.__getitem__, xs)]))
        except KeyError as exc:
            raise StructureError(f"{exc.args[0]!r} is not in the relation") from None


def compose(r: FuzzyRel, s: FuzzyRel) -> FuzzyRel:
    """Relation composition r;s with (r;s)(a,c) = inf_b r(a,b) (+) s(b,c).

    Runs on integers: with D the lcm of r's and s's `scaled` denominators,
    each entry x becomes x * D, and (r;s)(a,c) * D = min(min_b (r + s), D).
    Those integers, over D, are the composite's `scaled` form.  An empty
    middle carrier yields the all-1 relation (inf over nothing).
    """
    if r.target != s.source:
        raise StructureError("composition: middle carriers disagree")
    (dr, left), (ds, right) = r.scaled, s.scaled
    den = lcm(dr, ds)
    left = left if dr == den else [[x * (den // dr) for x in row] for row in left]
    right = right if ds == den else [[x * (den // ds) for x in row] for row in right]
    columns = list(zip(*right)) if right else [()] * len(s.target)
    ints = tuple(
        tuple(min(min(map(add, row, col), default=den), den) for col in columns)
        for row in left
    )
    rows = tuple(tuple(unit_over(x, den) for x in row) for row in ints)
    return FuzzyRel._of_units(r.source, s.target, rows, IntBlock((den, ints)))


def _transpose(rows: tuple, width: int) -> tuple:
    """The columns of rows, each of width entries, as tuples."""
    return tuple(zip(*rows)) if rows else ((),) * width


def converse(r: FuzzyRel) -> FuzzyRel:
    """The transposed relation; it carries the transpose of r's `scaled`
    form."""
    den, ints = r.scaled
    width = len(r.target)
    return FuzzyRel._of_units(r.target, r.source, _transpose(r.values, width),
                              IntBlock((den, _transpose(ints, width))))


def graph(fn: Mapping, source: Carrier, target: Carrier, eps=ZERO) -> FuzzyRel:
    """The eps-graph of a function: eps where fn(a) = b, 1 elsewhere."""
    e = as_unit(eps)
    num, den = e.numerator, e.denominator
    rows, ints = [], []
    for a in source.elements:
        if a not in fn:
            raise StructureError(f"function undefined on {a!r}")
        fa = fn[a]
        if fa not in target:
            raise StructureError(f"function maps {a!r} outside the target carrier")
        rows.append(tuple(e if fa == b else ONE for b in target.elements))
        ints.append(tuple(num if fa == b else den for b in target.elements))
    return FuzzyRel._of_units(source, target, tuple(rows), IntBlock((den, tuple(ints))))


def diagonal(carrier: Carrier, eps=ZERO) -> FuzzyRel:
    """The eps-diagonal on a carrier; eps = 0 gives the identity relation."""
    return graph({x: x for x in carrier.elements}, carrier, carrier, eps)


def _hemimetric_ints(d: FuzzyRel) -> tuple | None:
    """The integer rows of d's `scaled` form if d is a hemimetric.

    Reflexivity (d <= diagonal) asks for a zero diagonal; off the diagonal
    it holds for every unit value.  The triangle inequality d <= d;d
    compares each entry with min_k d(i,k) + d(k,j), leaving out the
    truncation at 1 that d;d applies, since no entry exceeds 1.
    """
    if not d.is_square():
        raise StructureError("hemimetric check needs a square relation")
    _, ints = d.scaled
    if any(row[i] for i, row in enumerate(ints)):
        return None
    columns = list(zip(*ints))
    if all(x <= min(map(add, row, col)) for row in ints for x, col in zip(row, columns)):
        return ints
    return None


def is_hemimetric(d: FuzzyRel) -> bool:
    """d <= diagonal (reflexivity) and d <= d;d (triangle inequality)."""
    return _hemimetric_ints(d) is not None


def is_pseudometric(d: FuzzyRel) -> bool:
    """A symmetric hemimetric."""
    ints = _hemimetric_ints(d)
    return ints is not None and tuple(zip(*ints)) == ints


PredTable = Mapping[Hashable, Fraction]


def companion(r: FuzzyRel, f: PredTable) -> dict:
    """The pointwise-least g making (f, g) nonexpansive across r.

    g(b) = sup_a f(a) (-) r(a,b); the sup over an empty source is 0.
    """
    out = {}
    for j, b in enumerate(r.target.elements):
        out[b] = sup(
            sat_sub(as_unit(f[a]), r.values[i][j])
            for i, a in enumerate(r.source.elements)
        )
    return out
