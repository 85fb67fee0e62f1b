"""Every name that ``resolvent_lab`` exports has a caller outside the tests.

A public name counts as called when the library (``src/resolvent_lab/*.py``
other than ``__init__.py``, outside the name's own ``def`` or ``class``) or
the benchmark (``perfbench/*.py``) refers to it: as a name, an attribute or
an imported alias.  References are read from the syntax tree, so a mention
in a docstring or a comment does not count.  A public name that only tests
call shows here as a failure, as a new parameter shows in
``test_signatures.py``.
"""

import ast
import pathlib
import types

import resolvent_lab

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = pathlib.Path(resolvent_lab.__file__).resolve().parent
# called only by acceptance criterion 9, which pins the known discrepancy at lambda0 = 2 Re q / |q|^2
TEST_ONLY = {"distortion_at_critical_lambda"}


class References(ast.NodeVisitor):
    """The names a module refers to, each outside the definitions that bear that name."""

    def __init__(self):
        self.names: set[str] = set()
        self._defining: list[str] = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _refer(self, name):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._refer(node.id)

    def visit_Attribute(self, node):
        self._refer(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._refer(node.name)


def referenced_names() -> set[str]:
    refs = References()
    paths = [p for p in LIBRARY.glob("*.py") if p.name != "__init__.py"] + list((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return refs.names


def test_every_export_has_a_caller_outside_the_tests():
    exported = {name for name, obj in vars(resolvent_lab).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert exported - referenced_names() == TEST_ONLY
