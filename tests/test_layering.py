"""Only laxkit.functors, laxkit.liftings and laxkit.logic name concrete
grammar classes.

The JSON codec, the CLI, the systems module, the formula parser and the
law suite reach functor kinds, element kinds, lifting kinds and formula
kinds through the registries and the base classes, so adding a kind
touches one class.  This test reads the
source of those modules and fails if one imports a concrete class from the
package, or reaches one as an attribute of the functors, liftings or logic
module.

It keeps the layers in order: the transport solver imports only the core,
and the liftings, which hand the solver its warm starts, do not import
the distance engine that owns them.

It also keeps the integer kernels exact: transport.py, and each function
that runs a lifting, the Kleene step, composition or the metric checks on
integers, may use no true division, no float and no math function other
than lcm and gcd, so an integer kernel cannot slip into floating point
unnoticed.  The check is made per function where the rest of a module
divides Fractions on purpose.  And it keeps
the brute-force oracles in tests/oracles.py out of the package: no module
under src/laxkit imports the tests package.

The three grammars share one node base: each registry is the one its
base class names, and no other class in the grammar modules hooks
subclass creation.  It keeps one spelling per grammar operation: outside an allowlist,
no module-level function in src/laxkit only passes its parameters on to a
method of one of them, so each contract lives on its node method.
It keeps one relation view for every lift: each `lift`, `lift_ratio` and
`lift_block` method and grid_kantorovich_value reads its RelView only
through its integer rows, their denominator, its blocks and its
warm-start dict, and hands it on only to a child's lift or the grid
oracle.
Finally it keeps one JSON writer: reports and formula files are written by
jsonio.dump_json, and no module calls json.dump or json.dumps outside one
stated exception.
"""

import ast
import os

import pytest

from laxkit import functors, liftings, logic
from laxkit.functors import FunctorElement, FunctorSpec
from laxkit.liftings import LiftingSpec
from laxkit.logic import Formula

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "laxkit")
BASES = (FunctorSpec, FunctorElement, LiftingSpec, Formula)
CONCRETE = {
    name for module in (functors, liftings, logic) for name, obj in vars(module).items()
    if isinstance(obj, type) and issubclass(obj, BASES) and obj not in BASES
}
GRAMMAR_MODULES = {"functors", "liftings", "logic"}


def _source_module(node: ast.ImportFrom):
    """'functors', 'liftings', 'logic', 'package' (laxkit itself) or None."""
    name = node.module or ""
    if node.level == 0:
        if name == "laxkit":
            return "package"
        name = name[len("laxkit."):] if name.startswith("laxkit.") else ""
    elif not name:
        return "package"
    return name if name in GRAMMAR_MODULES else None


def concrete_names(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found, module_aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source_module(node)
            for alias in node.names:
                if source == "package" and alias.name in GRAMMAR_MODULES:
                    module_aliases.add(alias.asname or alias.name)
                elif source and (alias.name in CONCRETE or alias.name == "*"):
                    found.append(f"line {node.lineno}: imports {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in {f"laxkit.{m}" for m in GRAMMAR_MODULES} and alias.asname:
                    module_aliases.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in CONCRETE:
            value = node.value
            if isinstance(value, ast.Name) and value.id in module_aliases:
                found.append(f"line {node.lineno}: uses {value.id}.{node.attr}")
            elif isinstance(value, ast.Attribute) and value.attr in GRAMMAR_MODULES:
                found.append(f"line {node.lineno}: uses {value.attr}.{node.attr}")
    return found


def test_concrete_class_set_is_complete():
    assert {"Id", "Const", "PFin", "DFin", "Pair", "Maybe", "IdEl", "SetEl", "DistEl",
            "Hausdorff", "KantorovichD", "WassersteinD", "KantorovichGrid"} <= CONCRETE
    assert {cls.__name__ for cls in logic.FORMULA_KINDS.values()} <= CONCRETE
    assert not {"FunctorSpec", "FunctorElement", "LiftingSpec", "Formula"} & CONCRETE


@pytest.mark.parametrize("module", ["jsonio.py", "cli.py", "systems.py", "formparse.py",
                                    "axioms.py"])
def test_module_names_no_concrete_grammar_class(module):
    assert concrete_names(os.path.join(SRC, module)) == []


def test_one_base_registers_every_grammar_kind():
    assert FunctorSpec.kinds is functors.FUNCTOR_KINDS
    assert LiftingSpec.kinds is liftings.LIFTING_KINDS
    assert Formula.kinds is logic.FORMULA_KINDS
    hooks = {f"{module.__name__}.{name}" for module in (functors, liftings, logic)
             for name, obj in vars(module).items()
             if isinstance(obj, type) and obj.__module__ == module.__name__
             and "__init_subclass__" in vars(obj)}
    # Canonical's hook only keeps the cached hash on frozen dataclasses
    assert hooks == {"laxkit.functors.GrammarNode", "laxkit.functors.Canonical"}


def test_guard_sees_each_way_of_naming_a_class(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .functors import FUNCTOR_KINDS, PFin\n"
        "from .liftings import *\n"
        "from . import functors as f\n"
        "import laxkit.liftings as L\n"
        "from .logic import FORMULA_KINDS, Formula, MossNabla, push_negations\n"
        "from . import logic as G\n"
        "x = f.SetEl, L.Hausdorff, laxkit.functors.DistEl, f.FunctorSpec, G.Neg, G.semantics\n"
    )
    assert concrete_names(str(probe)) == [
        "line 1: imports PFin", "line 2: imports *", "line 5: imports MossNabla",
        "line 7: uses f.SetEl", "line 7: uses L.Hausdorff", "line 7: uses functors.DistEl",
        "line 7: uses G.Neg",
    ]


def package_imports(path: str) -> set:
    """The laxkit modules a module imports, by name ('core', 'transport', ...)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("laxkit.")}
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "laxkit" and not name.startswith("laxkit."):
                    continue
                name = name[len("laxkit."):]
            if name:
                found.add(name.split(".")[0])
            else:  # from . import core, transport
                found |= {alias.name for alias in node.names}
    return found


def test_layers_import_downward_only():
    assert package_imports(os.path.join(SRC, "transport.py")) == {"core"}
    assert "distance" not in package_imports(os.path.join(SRC, "liftings.py"))
    assert "transport" in package_imports(os.path.join(SRC, "liftings.py"))


def test_import_guard_sees_each_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os, laxkit.core\n"
        "from .distance import _chain\n"
        "from . import transport, liftings as L\n"
        "from laxkit.functors import base\n"
        "from laxkit import logic\n"
        "from fractions import Fraction\n"
    )
    assert package_imports(str(probe)) == {
        "core", "distance", "transport", "liftings", "functors", "logic"}


def _function(tree: ast.Module, qualname: str):
    """The definition named qualname ('f' or 'Class.method') in tree."""
    scope = tree
    for name in qualname.split("."):
        scope = next((node for node in scope.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name),
                     None)
        if scope is None:
            raise LookupError(f"no definition {qualname!r}")
    return scope


def float_uses(path: str, function: str | None = None) -> list:
    """True division, the name float, and math functions other than lcm/gcd,
    in the whole module or in the one function named ('f' or 'Class.method')."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found, math_aliases, math_names = [], {"math"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_aliases |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            math_names |= {a.asname or a.name for a in node.names if a.name not in {"lcm", "gcd"}}
    for node in ast.walk(tree if function is None else _function(tree, function)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Name) and node.id in math_names:
            found.append((node.lineno, f"math.{node.id}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in {"lcm", "gcd"}]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_aliases and node.attr not in {"lcm", "gcd"}):
            found.append((node.lineno, f"math.{node.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_transport_kernel_stays_in_exact_arithmetic():
    assert float_uses(os.path.join(SRC, "transport.py")) == []


@pytest.mark.parametrize("module, function", [
    ("liftings.py", "LiftingSpec.lift"), ("liftings.py", "IdLift.lift_ratio"),
    ("liftings.py", "ConstLift.lift_ratio"), ("liftings.py", "Hausdorff.lift_ratio"),
    ("liftings.py", "KantorovichD.lift_ratio"), ("liftings.py", "PairSum.lift_ratio"),
    ("liftings.py", "PairMax.lift_ratio"), ("liftings.py", "Discount.lift_ratio"),
    ("liftings.py", "MaybeLift.lift_ratio"), ("liftings.py", "KantorovichGrid.lift_ratio"),
    ("core.py", "RelView"),
    ("distance.py", "_chain"), ("core.py", "scaled_rows"), ("core.py", "unit_over"),
    ("core.py", "compose"), ("core.py", "_hemimetric_ints"), ("core.py", "is_hemimetric"),
    ("core.py", "is_pseudometric"), ("liftings.py", "LiftingSpec.lift_block"),
    ("liftings.py", "IdLift.lift_block"), ("core.py", "_RowsById"),
    ("logic.py", "membership"), ("core.py", "RelView.block"), ("core.py", "RelView.of_rows"),
    ("transport.py", "min_cost_transport"),
    ("transport.py", "_simplex"), ("transport.py", "_hang"), ("transport.py", "_northwest_corner"),
    ("liftings.py", "grid_kantorovich_value"),
    ("core.py", "FuzzyRel.scaled"), ("core.py", "FuzzyRel.view"),
    ("core.py", "converse"), ("core.py", "_transpose"),
    ("core.py", "graph"), ("axioms.py", "_rel_over_scale"), ("axioms.py", "rand_hemimetric"),
    ("functors.py", "DFin.random_element"), ("functors.py", "fdist"),
])
def test_integer_kernel_stays_in_exact_arithmetic(module, function):
    assert float_uses(os.path.join(SRC, module), function) == []


def test_exactness_guard_sees_each_float_path(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\n"
        "import math as m\n"
        "from math import lcm, sqrt\n"
        "a = 1 / 2\n"
        "a /= 3\n"
        "b = float(a) + math.gcd(4, 6) + m.floor(a) + lcm(2, 3) // 1\n"
        "def kernel(x):\n"
        "    return sqrt(x) + lcm(x, 2)\n"
        "class Node:\n"
        "    def lift(self, x):\n"
        "        return x // 2, x / 2\n"
        "    def exact(self, x):\n"
        "        return x // 2\n"
    )
    assert float_uses(str(probe)) == [
        "line 3: math.sqrt", "line 4: true division", "line 5: true division",
        "line 6: float", "line 6: math.floor", "line 8: math.sqrt", "line 11: true division",
    ]
    assert float_uses(str(probe), "kernel") == ["line 8: math.sqrt"]
    assert float_uses(str(probe), "Node.lift") == ["line 11: true division"]
    assert float_uses(str(probe), "Node.exact") == []
    with pytest.raises(LookupError):
        float_uses(str(probe), "Node.missing")


def oracle_imports(path: str) -> list:
    """Absolute imports of the tests package or one of its modules."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: imports {name}" for name in names
                  if name == "tests" or name.startswith("tests.")]
    return found


def test_package_imports_no_test_oracle():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "distance.py" in modules
    assert {m: oracle_imports(os.path.join(SRC, m)) for m in modules} == {m: [] for m in modules}


def test_oracle_guard_sees_each_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import tests.oracles\n"
        "import os, tests\n"
        "from tests.oracles import full_recompute_distance\n"
        "from tests import oracles\n"
        "from .tests import nothing\n"
        "import testsuite\n"
    )
    assert oracle_imports(str(probe)) == [
        "line 1: imports tests.oracles", "line 2: imports tests",
        "line 3: imports tests.oracles", "line 4: imports tests",
    ]


def delegations(path: str) -> list:
    """Module-level functions whose whole body is an optional docstring and
    `return p.m(...)`, p one of their parameters and the call passing the
    other parameters through in order, positionally or by their own names."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = node.body
        if (len(body) == 2 and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)):
            continue
        params = [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
        receiver = call.func.value.id
        passed = [a.id if isinstance(a, ast.Name) else None for a in call.args]
        passed += [k.arg if isinstance(k.value, ast.Name) and k.value.id == k.arg else None
                   for k in call.keywords]
        if receiver in params and passed == [p for p in params if p != receiver]:
            found.append(node.name)
    return found


# Each kept for a stated reason: lift_value is the seam the benchmark's tracer
# wraps to count lift calls; the encoders are half of the JSON codec beside
# their decode_* functions, and print_formula the text codec's printer beside
# parse_formula.
ALLOWED_DELEGATIONS = {
    "liftings.lift_value", "jsonio.encode_functor", "jsonio.encode_lifting",
    "jsonio.encode_formula", "formparse.print_formula",
}


def test_each_grammar_operation_has_one_spelling():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    found = {f"{m[:-3]}.{name}" for m in modules for name in delegations(os.path.join(SRC, m))}
    assert found == ALLOWED_DELEGATIONS


def test_delegation_guard_sees_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def documented(lifting, functor):\n"
        "    \"\"\"A docstring does not hide the forwarding.\"\"\"\n"
        "    return lifting.match(functor)\n"
        "def second(rng, functor, carrier):\n"
        "    return functor.random_element(rng, carrier)\n"
        "def keyword(spec, element, path=''):\n"
        "    return spec.element_errors(element, path=path)\n"
        "def adds_an_argument(spec, element):\n"
        "    return spec.element_errors(element, None)\n"
        "def reorders(spec, a, b):\n"
        "    return spec.method(b, a)\n"
        "def not_a_parameter(x):\n"
        "    return OTHER.method(x)\n"
        "def does_more(x):\n"
        "    y = x\n"
        "    return x.method()\n"
        "class Node:\n"
        "    def method(self, x):\n"
        "        return x.method()\n"
    )
    assert delegations(str(probe)) == ["documented", "second", "keyword"]


# What a lift may read of its relation view, and the calls it may hand the
# view on to: a child's lift, or the grid oracle.
VIEW_READS = {"block", "ints", "den", "transport_starts"}
VIEW_PASSES = {"lift", "lift_ratio", "lift_block", "grid_kantorovich_value"}


def relation_probes(path: str) -> list:
    """Each read of the relation parameter (the third, counting self) in
    every `lift`, `lift_ratio` and `lift_block` method and in
    grid_kantorovich_value other than through VIEW_READS, or as a bare
    argument of a VIEW_PASSES call: getattr(rel, ...), rel.at(...),
    rel.values and any other use of rel."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name in VIEW_PASSES
                and len(node.args.args) > 2):
            continue
        rel = node.args.args[2].arg
        parents = {child: parent for parent in ast.walk(node)
                   for child in ast.iter_child_nodes(parent)}
        for use in ast.walk(node):
            if not (isinstance(use, ast.Name) and use.id == rel
                    and isinstance(use.ctx, ast.Load)):
                continue
            parent = parents[use]
            if isinstance(parent, ast.Attribute):
                if parent.attr in VIEW_READS:
                    continue
                call = parents.get(parent)
                verb = "calls" if isinstance(call, ast.Call) and call.func is parent else "reads"
                found.append((use.lineno, f"{node.name} {verb} {rel}.{parent.attr}"))
                continue
            callee = parent.func if isinstance(parent, ast.Call) and use in parent.args else None
            name = getattr(callee, "attr", getattr(callee, "id", None))
            if name == "getattr":
                found.append((use.lineno, f"{node.name} calls getattr on {rel}"))
            elif name not in VIEW_PASSES:
                found.append((use.lineno, f"{node.name} reads {rel} directly"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_every_lift_reads_one_relation_view():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert {m: relation_probes(os.path.join(SRC, m)) for m in modules} == {m: [] for m in modules}


def test_relation_view_guard_sees_each_probe(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class Probing:\n"
        "    def lift(self, functor, rel, t1, t2):\n"
        "        starts = getattr(rel, 'transport_starts', None)\n"
        "        return rel.at(t1.value, t2.value)\n"
        "class Reading:\n"
        "    def lift(self, functor, r, t1, t2):\n"
        "        return functor.metric.at(t1.label, t2.label), getattr(functor, 'x')\n"
        "    def other(self, functor, rel, t1, t2):\n"
        "        return rel.at(t1, t2)\n"
        "def grid_kantorovich_value(modalities, step, rel, t1, t2):\n"
        "    return [rel.at(a, b) for a in t1 for b in t2]\n"
        "class Ratio:\n"
        "    def lift_ratio(self, functor, rel, t1, t2):\n"
        "        return rel.at(t1, t2).numerator, 1\n"
        "class Fractions:\n"
        "    def lift_ratio(self, functor, rel, t1, t2):\n"
        "        value = rel.values[t1.value][t2.value]\n"
        "        return value.numerator, value.denominator\n"
        "class Allowed:\n"
        "    def lift_ratio(self, functor, rel, t1, t2):\n"
        "        starts = rel.transport_starts\n"
        "        num, den = self.sub.lift_ratio(functor, rel, t1, t2)\n"
        "        return rel.ints[t1][t2] + num, rel.den + den\n"
        "    def lift_block(self, functor, rel, xs, ys):\n"
        "        return rel.block(xs, ys), grid_kantorovich_value((), 1, rel, xs, ys)\n"
        "class Direct:\n"
        "    def lift_block(self, functor, rel, xs, ys):\n"
        "        return len(rel), rel[xs], rel.source\n"
    )
    assert relation_probes(str(probe)) == [
        "line 3: lift calls getattr on rel", "line 4: lift calls rel.at",
        "line 11: grid_kantorovich_value calls rel.at", "line 14: lift_ratio calls rel.at",
        "line 17: lift_ratio reads rel.values", "line 28: lift_block reads rel directly",
        "line 28: lift_block reads rel directly", "line 28: lift_block reads rel.source",
    ]


def json_writes(path: str) -> list:
    """(line, scope, call) for each call of json.dump or json.dumps, under
    any import spelling; scope is the enclosing 'f' or 'Class.method', or
    '<module>'."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    modules, writers = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or "json" for alias in node.names
                        if alias.name == "json" or (alias.name.startswith("json.")
                                                    and not alias.asname)}
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and node.level == 0:
            writers |= {alias.asname or alias.name: alias.name for alias in node.names
                        if alias.name in ("dump", "dumps")}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                        and isinstance(func.value, ast.Name) and func.value.id in modules):
                    found.append((child.lineno, scope, f"json.{func.attr}"))
                elif isinstance(func, ast.Name) and func.id in writers:
                    found.append((child.lineno, scope, f"json.{writers[func.id]}"))
            visit(child, inner)

    visit(tree, "<module>")
    return sorted(found)


# The one stated exception: the text table prints a synthesized formula as
# one compact JSON line, a format dump_json, which indents, does not write.
ALLOWED_JSON_WRITES = {"cli._render_table"}


def test_reports_have_one_json_writer():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    found = {f"{m[:-3]}.{scope}" for m in modules
             for _, scope, _ in json_writes(os.path.join(SRC, m))}
    assert found == ALLOWED_JSON_WRITES


def test_json_writer_guard_sees_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json\n"
        "import json as j\n"
        "import json.encoder\n"
        "from json import dumps, dump as put, loads\n"
        "text = json.dumps({})\n"
        "def report(data, handle):\n"
        "    j.dump(data, handle)\n"
        "    return dumps(data), json.loads('1'), loads('2')\n"
        "class Writer:\n"
        "    def write(self, data, handle):\n"
        "        put(data, handle)\n"
        "        return self.dumps(data)\n"
    )
    assert json_writes(str(probe)) == [
        (5, "<module>", "json.dumps"), (7, "report", "json.dump"),
        (8, "report", "json.dumps"), (11, "Writer.write", "json.dump"),
    ]
