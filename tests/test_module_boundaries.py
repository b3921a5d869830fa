"""Each latecut module uses only the public names of the others, so a step
of the method cannot be re-implemented behind another module's private
helper; only ``network.compact`` turns a skip set into a network; and only
``network._stack_pass`` runs the batched stem, block and classifier maps."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "latecut"


def private_imports(source: str) -> list[str]:
    """``module:name`` for every underscore-prefixed name imported from a
    latecut module (relative or absolute)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "latecut":
            continue
        found.extend(
            f"{'.' * node.level}{module}:{alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        )
    return found


def test_detector_sees_relative_and_absolute_private_imports():
    source = (
        "from .pruning import decide, _decision\n"
        "from latecut.distill import _labels\n"
        "from . import _hidden\n"
        "from numpy import _private_of_another_package\n"
    )
    assert private_imports(source) == [".pruning:_decision", "latecut.distill:_labels", ".:_hidden"]


def test_no_module_imports_another_modules_private_names():
    assert (PACKAGE_DIR / "__init__.py").is_file()
    offenders = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def users_of(name: str, source: str) -> list[str]:
    """The function (``<module>`` outside any) of every use of ``name`` in
    ``source``, as a call or as a value, bare or as an attribute."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_sees_every_use_of_normalize_skip():
    source = (
        "def compact(net, skip):\n"
        "    return normalize_skip(net, skip)\n"
        "def forward(net, skip):\n"
        "    def inner():\n"
        "        return network.normalize_skip(net, skip)\n"
        "    return inner()\n"
        "resolve = normalize_skip\n"
    )
    assert users_of("normalize_skip", source) == ["compact", "inner", "<module>"]


def test_only_compact_resolves_skip_sets():
    users = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := users_of("normalize_skip", path.read_text(encoding="utf-8")))
    }
    assert users == {"network.py": ["compact"]}


def test_detector_sees_every_use_of_affine():
    source = (
        "def _affine(stack, weight, bias):\n"
        "    return stack @ weight + bias\n"
        "def _stack_pass(net, x):\n"
        "    return _affine(x, net.w, net.b)\n"
        "def forward_trace(net, x):\n"
        "    apply = network._affine\n"
        "    return apply(x, net.w, net.b)\n"
        "class Layer:\n"
        "    def __call__(self, x):\n"
        "        return _affine(x, self.w, self.b)\n"
    )
    assert users_of("_affine", source) == ["_stack_pass", "forward_trace", "__call__"]


def test_only_the_stack_pass_runs_affine_maps():
    """One implementation of the batched layer sequence: every affine map on
    a tile stack goes through ``_affine``, and only the stack pass calls it
    (the batch-1 row path runs the row kernel instead)."""
    users = {
        path.name: set(names)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := users_of("_affine", path.read_text(encoding="utf-8")))
    }
    assert users == {"network.py": {"_stack_pass"}}
