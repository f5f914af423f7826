"""Only laxkit.functors and laxkit.liftings name concrete grammar classes.

The JSON codec, the CLI and the systems module reach functor kinds,
element kinds and lifting kinds through the registries and the base
classes, so adding a kind touches one class.  This test reads the source
of those modules and fails if one imports a concrete class from the
package, or reaches one as an attribute of the functors or liftings module.
"""

import ast
import os

import pytest

from laxkit import functors, liftings
from laxkit.functors import FunctorElement, FunctorSpec
from laxkit.liftings import LiftingSpec

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "laxkit")
BASES = (FunctorSpec, FunctorElement, LiftingSpec)
CONCRETE = {
    name for module in (functors, liftings) for name, obj in vars(module).items()
    if isinstance(obj, type) and issubclass(obj, BASES) and obj not in BASES
}
GRAMMAR_MODULES = {"functors", "liftings"}


def _source_module(node: ast.ImportFrom):
    """'functors', 'liftings', 'package' (laxkit itself) or None."""
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
    assert not {"FunctorSpec", "FunctorElement", "LiftingSpec"} & CONCRETE


@pytest.mark.parametrize("module", ["jsonio.py", "cli.py", "systems.py"])
def test_module_names_no_concrete_grammar_class(module):
    assert concrete_names(os.path.join(SRC, module)) == []


def test_guard_sees_each_way_of_naming_a_class(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .functors import FUNCTOR_KINDS, PFin\n"
        "from .liftings import *\n"
        "from . import functors as f\n"
        "import laxkit.liftings as L\n"
        "from .logic import Const\n"
        "x = f.SetEl, L.Hausdorff, laxkit.functors.DistEl, f.FunctorSpec\n"
    )
    assert concrete_names(str(probe)) == [
        "line 1: imports PFin", "line 2: imports *",
        "line 6: uses f.SetEl", "line 6: uses L.Hausdorff", "line 6: uses functors.DistEl",
    ]
