"""Fuzzy relation liftings along the functor grammar.

A lifting node mirrors a functor node and says how a relation between two
carriers is extended to a distance between functor elements.  Each lifting
kind is one class (see LiftingSpec), so adding a kind means adding one
class here and exporting it.

  * IdLift reads the relation itself, at the leaf values it lifts,
  * ConstLift reads the label hemimetric,
  * Hausdorff (symmetric or one-sided) handles finite sets; it reads the
    lifts of all pairs of members as one integer block (lift_block) and
    takes inf and sup on its rows and columns, over the block's
    denominator,
  * KantorovichD handles finite distributions through the exact
    transportation program; WassersteinD is the same class under its own
    JSON kind, which is sound because the sup-over-nonexpansive-pairs and
    inf-over-couplings formulations coincide on finite distributions, and
    the solver is cross-checked in the tests against brute-force coupling
    enumeration.  Its costs are its child's integer block (lift_block),
    and its ratio is the solve's integer value over its scale.  The node
    keeps each pair of elements' last TransportResult in the
    view's `transport_starts` dict, and the next solve of that pair resumes
    from its optimal basis (see RelView),
  * PairSum / PairMax / Discount / MaybeLift combine and rescale their
    children's ratios on integers (PairSum forms w_l * x + w_r * y as one
    integer numerator over the product of the four denominators, PairMax
    compares by cross-multiplication); no general law status is claimed
    for weighted or discounted composites, each instance is certified
    empirically by the law suite in laxkit.axioms,
  * KantorovichGrid is a generic sup-over-modalities oracle on a finite
    value grid; it restricts the right-hand table of each candidate pair
    to the companion of the left-hand one, and the left-hand one to the
    support of the left element, both lossless for monotone natural
    modalities, and its value is within one grid step below the true
    supremum when all modalities are nonexpansive.

Every kind evaluates once, in `lift_ratio`, to an exact ratio of two
integers (num, den) with 0 <= num <= den, not necessarily reduced; the
base class's `lift` turns it into one reduced Fraction, so composites
combine their children's ratios on integers and build no Fraction of
their own.  Each kind reads its relation through one RelView
(laxkit.core), whose entries are integers over one denominator: IdLift's
ratio is its entry over that denominator.  A node reads a block of its
child's lifts through the child's lift_block, as integer rows over one
denominator: IdLift reads them off the view's integers (RelView.block),
and every other kind scales its own ratios to their lcm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import attrgetter

from .core import (
    IntBlock,
    ONE,
    RelView,
    StructureError,
    ZERO,
    format_unit,
    is_pseudometric,
    sup,
    unit_over,
)
from .functors import (
    Const,
    DFin,
    DistEl,
    FunctorElement,
    FunctorSpec,
    GrammarNode,
    Id,
    Maybe,
    PFin,
    Pair,
    SetEl,
    base,
)
from .modalities import is_dual_closed, resolve_modality
from .transport import min_cost_transport


LIFTING_KINDS: dict = {}  # JSON kind -> lifting class, in definition order

_value = attrgetter("value")  # the leaf value of an Id element


class LiftingSpec(GrammarNode, kinds=LIFTING_KINDS):
    """Base class of lifting grammar nodes; each subclass is one lifting kind.

    Its methods are all the toolkit knows about the kind; each subclass
    defines `lift_ratio`, the evaluation, and inherits `lift`, which turns
    its ratio into a Fraction.  A subclass also sets `kind`, the JSON
    tag it registers under in LIFTING_KINDS, and `child_fields`, the
    attributes holding its child liftings (see GrammarNode), each named
    like the functor attribute it lifts along, so a node's children pair
    up with those of the functor it fits; and, unless it overrides `match`
    and `default_functor`, the `functor_type` it lifts along and the
    `mismatch` reported for any other functor.  Children are reached by
    direct method calls, so evaluation costs one method call per node and
    no dispatch.
    """

    def range_bound(self, functor: FunctorSpec) -> Fraction:
        """An upper bound for the values this lifting can produce."""
        return ONE  # every lifted value is a distance in [0, 1]

    def contraction_factor(self) -> Fraction:
        """A structural Lipschitz constant of the lifting in its relation.

        Moving every relation entry by delta moves the lifted value by at most
        factor * delta.  Discounted or label-weighted composites contract
        (factor < 1), which turns a fixpoint residual into a bound on the
        remaining gap to the limit; a factor of 1 promises nothing beyond
        nonexpansiveness.
        """
        # as Lipschitz as its worst child; a leaf promises nonexpansiveness only
        return max((child.contraction_factor() for child in self.children()), default=ONE)

    def match(self, functor: FunctorSpec, path: str = "") -> list:
        """Shape-check a lifting against a functor; returns (path, message) pairs.

        Besides shapes this checks the weight constraints: combined weights must
        keep values inside the unit interval given each component's range bound
        (so a label metric bounded by 1 - lambda admits weight 1 next to a
        lambda-discounted component).
        """
        if not isinstance(functor, self.functor_type):
            return [(path or "<root>", self.mismatch)]
        out = []
        for name, child, sub in zip(self.child_fields, self.children(), functor.children()):
            out += child.match(sub, f"{path}.{name}")
        return out

    def claims_converse(self, functor: FunctorSpec) -> bool:
        """Whether the lifting is expected to preserve relational converse."""
        return all(child.claims_converse(sub)
                   for child, sub in zip(self.children(), functor.children()))

    def approximation_slack(self) -> Fraction:
        """Zero for exact liftings; the grid step wherever a grid oracle occurs."""
        return max((child.approximation_slack() for child in self.children()), default=ZERO)

    def certified_slack(self, functor: FunctorSpec) -> Fraction:
        """approximation_slack, as a bound: the exact lifting a grid node
        approximates lies at most this far above its value.  StructureError
        where a grid node's modalities on the functor are not all flagged
        nonexpansive, for which no bound holds (see grid_error_bound)."""
        return max((child.certified_slack(sub)
                    for child, sub in zip(self.children(), functor.children())), default=ZERO)

    def default_functor(self, path: str = "lifting") -> FunctorSpec:
        """The functor this lifting's shape implies; StructureError if none."""
        return self.functor_type(*(child.default_functor(f"{path}.{name}")
                                   for name, child in zip(self.child_fields, self.children())))

    def lift_ratio(self, functor: FunctorSpec, rel: RelView,
                   t1: FunctorElement, t2: FunctorElement) -> tuple:
        """The lifted value between t1 and t2 as integers (num, den), with
        0 <= num <= den and den > 0, not necessarily reduced."""
        raise NotImplementedError

    def lift(self, functor: FunctorSpec, rel: RelView,
             t1: FunctorElement, t2: FunctorElement) -> Fraction:
        """The lifted value between t1 and t2: lift_ratio as a reduced Fraction."""
        return unit_over(*self.lift_ratio(functor, rel, t1, t2))

    def lift_block(self, functor: FunctorSpec, rel: RelView, xs, ys) -> IntBlock:
        """The lifts of every pair of xs x ys, as integer rows over one
        denominator: rows[i][j] / den == lift(functor, rel, xs[i], ys[j]).

        This default takes each pair's lift_ratio and scales the block by
        the lcm of their denominators; a kind that can read its values off
        the view's integers overrides it.
        """
        ratios = [[self.lift_ratio(functor, rel, a, b) for b in ys] for a in xs]
        den = lcm(*{d for row in ratios for _, d in row})
        return IntBlock((den, [[n * (den // d) for n, d in row] for row in ratios]))


@dataclass(frozen=True)
class IdLift(LiftingSpec):
    kind = "id"
    functor_type = Id
    mismatch = "IdLift needs the identity functor"

    def lift_ratio(self, functor, rel, t1, t2):
        return rel.ints[t1.value][t2.value], rel.den

    def lift_block(self, functor, rel, xs, ys):
        return rel.block(map(_value, xs), list(map(_value, ys)))


@dataclass(frozen=True)
class ConstLift(LiftingSpec):
    kind = "const"
    functor_type = Const
    mismatch = "ConstLift needs a label component"

    def range_bound(self, functor):
        return sup(v for row in functor.metric.values for v in row)

    def claims_converse(self, functor):
        return is_pseudometric(functor.metric)

    def contraction_factor(self):
        return ZERO  # ignores the relation entirely

    def default_functor(self, path="lifting"):
        raise StructureError(f"{path}: a label component has no default label metric")

    def lift_ratio(self, functor, rel, t1, t2):
        value = functor.metric.at(t1.label, t2.label)
        return value.numerator, value.denominator


@dataclass(frozen=True)
class Hausdorff(LiftingSpec):
    variant: str  # 'sym' | 'left' | 'right'
    sub: LiftingSpec

    kind = "hausdorff"
    child_fields = ("sub",)
    functor_type = PFin
    mismatch = "Hausdorff needs a finite-set component"

    def __post_init__(self):
        if self.variant not in ("sym", "left", "right"):
            raise StructureError(f"unknown Hausdorff variant {self.variant!r}")

    def claims_converse(self, functor):
        return self.variant == "sym" and self.sub.claims_converse(functor.sub)

    def lift_ratio(self, functor, rel, t1, t2):
        if not isinstance(t1, SetEl) or not isinstance(t2, SetEl):
            raise StructureError("Hausdorff lifting expects set elements")
        # every variant reads each (a, b) pair, so lift each pair once, then
        # take inf and sup on the block's integers over its common denominator
        xs, ys = t1.members, t2.members
        den, rows = self.sub.lift_block(functor.sub, rel, xs, ys)
        if not xs or not ys:
            # a sup over nothing is 0 and an inf over nothing is 1: a
            # direction reads 1 exactly when the side of its sup has members
            left = self.variant != "right" and bool(xs)
            right = self.variant != "left" and bool(ys)
            return int(left or right), 1
        value = max(map(min, rows)) if self.variant != "right" else 0
        if self.variant != "left":
            value = max(value, max(map(min, zip(*rows))))
        return value, den

    def to_json(self):
        return {**super().to_json(), "variant": self.variant}

    @classmethod
    def from_json(cls, node):
        node.expect("variant" in node.raw, "hausdorff needs a 'variant'")
        return cls(node.raw["variant"], node.child("sub"))


@dataclass(frozen=True)
class KantorovichD(LiftingSpec):
    sub: LiftingSpec

    kind = "kantorovich"
    child_fields = ("sub",)
    functor_type = DFin
    mismatch = "transport liftings need a distribution component"

    def range_bound(self, functor):
        return self.sub.range_bound(functor.sub)

    def lift_ratio(self, functor, rel, t1, t2):
        if not isinstance(t1, DistEl) or not isinstance(t2, DistEl):
            raise StructureError("transport liftings expect distribution elements")
        xs, mu = zip(*t1.pairs) if t1.pairs else ((), ())
        ys, nu = zip(*t2.pairs) if t2.pairs else ((), ())
        cost = self.sub.lift_block(functor.sub, rel, xs, ys)
        # one result per node and pair of elements, the next solve's warm start;
        # the ids hold while the view's owner keeps the elements alive
        starts, key = rel.transport_starts, (id(self), id(t1), id(t2))
        result = starts[key] = min_cost_transport(mu, nu, cost, starts.get(key))
        return result.total, result.den


class WassersteinD(KantorovichD):
    """KantorovichD under its own JSON kind (see the module docstring)."""

    kind = "wasserstein"


@dataclass(frozen=True)
class PairSum(LiftingSpec):
    w_left: Fraction
    w_right: Fraction
    left: LiftingSpec
    right: LiftingSpec

    kind = "pair-sum"
    child_fields = ("left", "right")
    functor_type = Pair
    mismatch = "pair-sum needs a pair component"

    def __post_init__(self):
        for w in (self.w_left, self.w_right):
            if not isinstance(w, Fraction) or w < 0:
                raise StructureError("pair-sum weights must be nonnegative rationals")

    def range_bound(self, functor):
        return (self.w_left * self.left.range_bound(functor.left)
                + self.w_right * self.right.range_bound(functor.right))

    def match(self, functor, path=""):
        out = super().match(functor, path)
        if not out:
            bound = self.range_bound(functor)
            if bound > 1:
                out.append(
                    (path or "<root>",
                     f"weighted sum can reach {format_unit(bound)} > 1; "
                     "lower the weights or the label metric's range")
                )
        return out

    def contraction_factor(self):
        return (self.w_left * self.left.contraction_factor()
                + self.w_right * self.right.contraction_factor())

    def lift_ratio(self, functor, rel, t1, t2):
        # w_l * x + w_r * y as one integer numerator over the four denominators
        xn, xd = self.left.lift_ratio(functor.left, rel, t1.left, t2.left)
        yn, yd = self.right.lift_ratio(functor.right, rel, t1.right, t2.right)
        wl, wr = self.w_left, self.w_right
        left_den, right_den = wl.denominator * xd, wr.denominator * yd
        num = wl.numerator * xn * right_den + wr.numerator * yn * left_den
        den = left_den * right_den
        if num > den:
            raise StructureError(f"value {Fraction(num, den)} outside the unit interval")
        return num, den

    def to_json(self):
        return {**super().to_json(),
                "weights": [format_unit(self.w_left), format_unit(self.w_right)]}

    @classmethod
    def from_json(cls, node):
        weights = node.raw.get("weights")
        node.expect(isinstance(weights, list) and len(weights) == 2,
                    "pair-sum needs two weights", ".weights")
        return cls(node.unit(weights[0], ".weights[0]"), node.unit(weights[1], ".weights[1]"),
                   node.child("left"), node.child("right"))


@dataclass(frozen=True)
class PairMax(LiftingSpec):
    left: LiftingSpec
    right: LiftingSpec

    kind = "pair-max"
    child_fields = ("left", "right")
    functor_type = Pair
    mismatch = "pair-max needs a pair component"

    def range_bound(self, functor):
        return max(self.left.range_bound(functor.left), self.right.range_bound(functor.right))

    def lift_ratio(self, functor, rel, t1, t2):
        xn, xd = x = self.left.lift_ratio(functor.left, rel, t1.left, t2.left)
        yn, yd = y = self.right.lift_ratio(functor.right, rel, t1.right, t2.right)
        return x if xn * yd >= yn * xd else y


@dataclass(frozen=True)
class Discount(LiftingSpec):
    factor: Fraction
    sub: LiftingSpec

    kind = "discount"
    child_fields = ("sub",)

    def __post_init__(self):
        if not isinstance(self.factor, Fraction) or not ZERO <= self.factor < ONE:
            raise StructureError("discount factor must be a rational in [0, 1)")

    def range_bound(self, functor):
        return self.factor * self.sub.range_bound(functor)

    def match(self, functor, path=""):
        return self.sub.match(functor, f"{path}.sub")

    def claims_converse(self, functor):
        return self.sub.claims_converse(functor)

    def contraction_factor(self):
        return self.factor * self.sub.contraction_factor()

    def certified_slack(self, functor):
        return self.sub.certified_slack(functor)

    def default_functor(self, path="lifting"):
        return self.sub.default_functor(f"{path}.sub")

    def lift_ratio(self, functor, rel, t1, t2):
        num, den = self.sub.lift_ratio(functor, rel, t1, t2)
        return self.factor.numerator * num, self.factor.denominator * den

    def to_json(self):
        return {**super().to_json(), "factor": format_unit(self.factor)}

    @classmethod
    def from_json(cls, node):
        node.expect("factor" in node.raw, "discount needs a 'factor'")
        return cls(node.unit(node.raw["factor"], ".factor"), node.child("sub"))


@dataclass(frozen=True)
class MaybeLift(LiftingSpec):
    sub: LiftingSpec

    kind = "maybe"
    child_fields = ("sub",)
    functor_type = Maybe
    mismatch = "MaybeLift needs an optional component"

    def lift_ratio(self, functor, rel, t1, t2):
        if t1.value is None and t2.value is None:
            return 0, 1
        if t1.value is None or t2.value is None:
            return 1, 1
        return self.sub.lift_ratio(functor.sub, rel, t1.value, t2.value)


@dataclass(frozen=True)
class KantorovichGrid(LiftingSpec):
    modality_names: tuple
    step: Fraction

    kind = "kantorovich-grid"

    def __post_init__(self):
        object.__setattr__(self, "modality_names", tuple(self.modality_names))
        if not isinstance(self.step, Fraction) or self.step.numerator != 1:
            raise StructureError("grid step must be 1/k for a positive integer k")

    def _modalities(self, functor):
        """The named modalities, read from the table the functor keeps."""
        available = functor.standard_modalities()
        return [resolve_modality(available, name) for name in self.modality_names]

    def match(self, functor, path=""):
        out = []
        for name in self.modality_names:
            try:
                lam = resolve_modality(functor.standard_modalities(), name)
            except StructureError as exc:
                out.append((path or "<root>", str(exc)))
                continue
            if not lam.monotone:
                out.append(
                    (path or "<root>",
                     f"modality {lam.name} is not monotone; the grid search "
                     "restricts right-hand tables to companions, which is "
                     "only sound for monotone modalities")
                )
        return out

    def claims_converse(self, functor):
        return is_dual_closed({lam.name: lam for lam in self._modalities(functor)})

    def approximation_slack(self):
        # Snapping a left table down to the grid moves it by less than one
        # step; companions follow suit, and nonexpansive modalities turn both
        # movements into at most one step of value lost (see grid_error_bound)
        return self.step

    def certified_slack(self, functor):
        return grid_error_bound(self._modalities(functor), self.step)

    def default_functor(self, path="lifting"):
        raise StructureError(f"{path}: cannot derive the functor under a grid node")

    def lift_ratio(self, functor, rel, t1, t2):
        value = grid_kantorovich_value(self._modalities(functor), self.step, rel, t1, t2)
        return value.numerator, value.denominator

    def to_json(self):
        return {**super().to_json(), "modalities": list(self.modality_names),
                "step": format_unit(self.step)}

    @classmethod
    def from_json(cls, node):
        names = node.raw.get("modalities")
        node.expect(isinstance(names, list) and names and all(isinstance(n, str) for n in names),
                    "kantorovich-grid needs a list of modality names")
        node.expect("step" in node.raw, "kantorovich-grid needs a 'step'")
        return cls(names, node.unit(node.raw["step"], ".step"))


def require_match(lifting: LiftingSpec, functor: FunctorSpec) -> None:
    """Refuse a lifting that does not fit the functor: one StructureError
    lists every problem lifting.match finds."""
    problems = lifting.match(functor)
    if problems:
        lines = "; ".join(f"{p}: {m}" for p, m in problems)
        raise StructureError(f"lifting does not fit the system functor: {lines}")


def lift_value(lifting: LiftingSpec, functor: FunctorSpec, rel: RelView,
               t1: FunctorElement, t2: FunctorElement) -> Fraction:
    """Distance between two functor elements across a lifted relation.

    The relation view rel is read at the leaf values x of t1 and y of t2,
    as rel.ints[x][y] / rel.den, and rel.transport_starts holds one chain's
    or one check's warm starts; the lifting must fit the functor shape (see
    require_match).
    """
    return lifting.lift(functor, rel, t1, t2)


_GRID_CAP = 2_000_000
# The right-hand values one grid call keeps per modality: enough for the
# companions that recur across a search, few enough that a fine step cannot
# fill memory with them.
_GRID_MEMO = 1024


class _Over(dict):
    """numerator -> unit_over(numerator, den), each built on its first read."""

    __slots__ = ("den",)

    def __init__(self, den: int):
        self.den = den

    def __missing__(self, numerator):
        value = self[numerator] = unit_over(numerator, self.den)
        return value


def _left_tables(left, levels, drops, zero):
    """Each grid-valued table on left, once, with its companion's integers.

    Yields (table, companion): the table maps left[i] to levels[k_i], and
    companion[j] = max_i drops[i][k_i][j]; the companion over no left
    states is zero.
    """
    if not left:
        yield {}, zero
    elif len(left) == 1:
        (a,), (row,) = left, drops
        for level, drop in zip(levels, row):
            yield {a: level}, drop
    else:
        for ks in product(range(len(levels)), repeat=len(left)):
            yield (dict(zip(left, map(levels.__getitem__, ks))),
                   tuple(map(max, *map(list.__getitem__, drops, ks))))


def grid_kantorovich_value(modalities, step: Fraction, rel: RelView,
                           t1: FunctorElement, t2: FunctorElement) -> Fraction:
    """Sup over modalities and grid-valued left tables, right = companion.

    The grid is 0, step, 2 * step, ..., 1 for a step of 1/k, the only
    steps KantorovichGrid admits.  Left tables take grid values on
    base(t1) only and are 0 elsewhere.  This loses nothing.  A natural
    modality reads a table only on the support of its element, so
    lam(t1, f) depends on f over base(t1) alone.  The companion
    g(b) = sup_a f(a) (-) rel(a, b) is monotone in f, so zeroing f off
    base(t1) can only lower g, and a monotone lam then only lowers
    lam(t2, g): the value lam(t1, f) (-) lam(t2, g) cannot drop.  Hence
    the value reads rel only on base(t1) x base(t2), and the search costs
    |levels|^(arity * |base t1|) tables, to which the cap applies,
    instead of |levels|^(arity * |source|).

    The search runs on integers over D = lcm(den, k), den being the
    denominator of the block rel.block reads: level j is j * D/k, and the
    drops max(level - rel(a, b), 0) over base(t2) are built once per left
    state a and level, so a companion entry is an integer max.  Each left
    table is visited once, and every modality of arity 1 is evaluated on
    it and on its one companion; modalities of arity 2 or more combine the
    tables of a list, which the cap keeps at |levels|^|base t1| <= sqrt(cap)
    entries.  Evaluators read Fraction tables, built through one
    numerator -> Fraction dict per call.  A right-hand value is needed only
    when the left-hand one beats the best so far; each modality keeps them
    on the companion's integers in a memo of at most _GRID_MEMO entries.
    The best value is kept as an integer numerator and denominator until
    the end.

    Returns a value in [true - step, true] when all modalities are
    nonexpansive (see grid_error_bound); exact whenever the optimum is
    attained on the grid.
    """
    left, right = base(t1), list(base(t2))
    width = len(left)
    n = step.denominator
    n_levels = n + 1
    # refuse before any work: the level list alone grows with the step
    by_arity = {}  # arity -> the modalities of that arity, in order
    for lam in modalities:
        if not lam.monotone:
            raise StructureError(
                f"modality {lam.name} is not monotone; refusing the companion-"
                "restricted grid search"
            )
        dims = lam.arity * width
        if n_levels ** dims > _GRID_CAP:
            raise StructureError(
                f"grid search over {n_levels}^{dims} tables exceeds the cap; "
                "use a coarser step or smaller carriers"
            )
        by_arity.setdefault(lam.arity, []).append(lam)
    den, block = rel.block(left, right)
    big = lcm(den, n)
    over = _Over(big)
    # a search over no entries has one table, the empty one, and reads no level
    levels, drops = [], []
    if width and any(arity > 0 for arity in by_arity):
        unit, scale = big // n, big // den
        levels = [over[k * unit] for k in range(n_levels)]
        drops = [[tuple(max(k * unit - r * scale, 0) for r in row) for k in range(n_levels)]
                 for row in block]

    def companion(g):  # a companion's integers as the Fraction table evaluators read
        return dict(zip(right, map(over.__getitem__, g)))

    visits = _left_tables(left, levels, drops, (0,) * len(right))
    tables = None
    if any(arity > 1 for arity in by_arity):
        # combinations of tables: each table and its companion once, in a
        # list of |levels|^|base t1| <= sqrt(cap) entries
        tables = [(f, g, companion(g)) for f, g in visits]
    best_num, best_den = 0, 1
    for arity, lams in by_arity.items():
        # (left tables, companion integers, companions or None until needed)
        if tables is not None:
            combos = (tuple(zip(*c)) or ((), (), ()) for c in product(tables, repeat=arity))
        elif arity:  # arity 1, the one pass over visits
            combos = (((f,), g, None) for f, g in visits)
        else:
            combos = [((), (), ())]
        memos = [{} for _ in lams]
        for fs, key, gs in combos:
            for lam, memo in zip(lams, memos):
                x = lam.evaluator(t1, fs)
                xn, xd = x.numerator, x.denominator
                # x (-) y <= x: only a left value above the best can beat it
                if xn * best_den <= best_num * xd:
                    continue
                y = memo.get(key)
                if y is None:
                    if gs is None:
                        gs = (companion(key),)
                    y = lam.evaluator(t2, gs)
                    y = y.numerator, y.denominator
                    if len(memo) < _GRID_MEMO:
                        memo[key] = y
                # x (-) y against the best, on numerators and denominators
                yn, yd = y
                num = xn * yd - yn * xd
                if num * best_den > best_num * xd * yd:
                    best_num, best_den = num, xd * yd
    return Fraction(best_num, best_den) if best_num else ZERO


def grid_error_bound(modalities, step: Fraction) -> Fraction:
    """The guaranteed gap of the grid oracle below the true supremum: the
    approximation_slack of the KantorovichGrid over these modalities at
    this step, for modalities that carry the nonexpansiveness flag.
    Refuses any other modality, for which no bound is claimed, and, as
    KantorovichGrid does, any step that is not 1/k: no grid has it.
    """
    for lam in modalities:
        if not lam.nonexpansive:
            raise StructureError(
                f"modality {lam.name} is not flagged nonexpansive; the grid "
                "oracle carries no error bound for it"
            )
    return KantorovichGrid(tuple(lam.name for lam in modalities), step).approximation_slack()
