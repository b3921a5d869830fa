"""Each latecut module uses only the public names of the others, so a step
of the method cannot be re-implemented behind another module's private
helper; only ``network.compact`` turns a skip set into a network; only
``network._stack_pass`` runs the forward kernels; only
``profiling.check_profile`` refuses a block's latency saving; and every
name has one import path, the module that defines it, since the package
root is its docstring alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_DIR / "src" / "latecut"


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


def test_detector_sees_every_use_of_a_kernel():
    source = (
        "tile_kernel, row_kernel = np.matmul, np.dot\n"
        "def _stack_pass(net, x):\n"
        "    gemm = row_kernel if len(x) == 1 else tile_kernel\n"
        "    return gemm(x, net.w)\n"
        "def forward_trace(net, x):\n"
        "    return network.tile_kernel(x, net.w)\n"
        "class Layer:\n"
        "    def __call__(self, x):\n"
        "        return row_kernel(x, self.w)\n"
    )
    assert users_of("tile_kernel", source) == ["<module>", "_stack_pass", "forward_trace"]
    assert users_of("row_kernel", source) == ["<module>", "_stack_pass", "__call__"]


def test_only_the_stack_pass_runs_affine_maps():
    """One implementation of the layer sequence: every affine map of a
    forward or a trace runs through ``tile_kernel`` or ``row_kernel``, and
    only the stack pass calls them; outside it the package only selects the
    pair at import (the self-check takes the pair it checks as arguments)."""
    for kernel in ("tile_kernel", "row_kernel"):
        users = {
            path.name: set(names)
            for path in sorted(PACKAGE_DIR.glob("*.py"))
            if (names := users_of(kernel, path.read_text(encoding="utf-8")))
        }
        assert users == {"network.py": {"<module>", "_stack_pass"}}, kernel


def test_detector_sees_every_raise_of_degenerate_block_error():
    source = (
        "from .errors import DegenerateBlockError\n"
        "class DegenerateBlockError(NumericError):\n"
        "    pass\n"
        "def check_profile(prof, net):\n"
        "    raise DegenerateBlockError('block 1')\n"
        "def importance(row):\n"
        "    raise errors.DegenerateBlockError('block 2')\n"
        "__all__ = ['DegenerateBlockError']\n"
    )
    assert users_of("DegenerateBlockError", source) == ["check_profile", "importance"]


def test_only_check_profile_refuses_a_latency_saving():
    """One implementation of the rule that every block's latency saving is
    positive: the package names ``DegenerateBlockError`` only where
    ``check_profile`` raises it (its definition, imports and exports are
    not uses)."""
    users = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := users_of("DegenerateBlockError", path.read_text(encoding="utf-8")))
    }
    assert users == {"profiling.py": ["check_profile"]}


def test_package_root_is_its_docstring_only():
    """``latecut/__init__.py`` imports, assigns and re-exports nothing."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def _target_names(target) -> set[str]:
    elements = target.elts if isinstance(target, ast.Tuple) else [target]
    return {element.id for element in elements if isinstance(element, ast.Name)}


def top_level_bindings(source: str) -> set[str]:
    """The names a module's own top-level code binds with ``def``,
    ``class`` or an assignment, inside top-level ``if``/``else`` bodies
    too; a name it only imports is not among them."""
    names = set()

    def visit(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    names.update(_target_names(target))
            elif isinstance(node, ast.AnnAssign):
                names.update(_target_names(node.target))
            elif isinstance(node, ast.If):
                visit(node.body)
                visit(node.orelse)

    visit(ast.parse(source).body)
    return names


def stray_imports(source: str, bindings: dict[str, set[str]], in_package=False) -> list[str]:
    """``module:name`` for every ``from latecut[.m] import name`` in
    ``source`` that names neither a submodule of the package nor a name in
    ``bindings[module]``; with ``in_package``, relative imports are read as
    imports from ``latecut``."""
    submodules = {module.split(".")[1] for module in bindings if "." in module}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] == "latecut":
            module = node.module
        elif node.level == 1 and in_package:
            module = "latecut" + (f".{node.module}" if node.module else "")
        else:
            continue
        found.extend(
            f"{module}:{alias.name}"
            for alias in node.names
            if not (module == "latecut" and alias.name in submodules
                    or alias.name in bindings.get(module, ()))
        )
    return found


def test_detector_sees_names_imported_from_a_module_that_only_imports_them():
    package = {
        "latecut": '"""doc."""\nfrom .distill import distill\n',
        "latecut.distill": "from .network import forward\nLIMIT: int = 3\ndef distill(): pass\n",
        "latecut.network": (
            "import numpy as np\n"
            "if np.dot:\n    KERNEL = 1\nelse:\n    KERNEL, SPARE = 2, 3\n"
            "class Net: pass\n"
            "Net.width = 5\n"
        ),
    }
    bindings = {module: top_level_bindings(source) for module, source in package.items()}
    assert bindings["latecut"] == set()
    assert bindings["latecut.network"] == {"KERNEL", "SPARE", "Net"}
    source = (
        "import latecut.distill as d\n"
        "from latecut import distill, network\n"
        "from latecut import forward, Net\n"
        "from latecut.distill import distill, LIMIT, forward\n"
        "from latecut.network import KERNEL, SPARE, Net, np, width\n"
        "from latecut.missing import anything\n"
        "from numpy import dot\n"
        "from .network import Net, forward\n"
    )
    assert stray_imports(source, bindings) == [
        "latecut:forward", "latecut:Net", "latecut.distill:forward",
        "latecut.network:np", "latecut.network:width", "latecut.missing:anything",
    ]
    assert stray_imports(source, bindings, in_package=True)[-1:] == ["latecut.network:forward"]


def test_every_latecut_name_is_imported_from_the_module_that_binds_it():
    """No re-export: a latecut name imported anywhere in the repository
    (package, tests, scripts, benchmark) comes from the module whose own
    source defines or assigns it."""
    bindings = {
        "latecut" if path.stem == "__init__" else f"latecut.{path.stem}":
            top_level_bindings(path.read_text(encoding="utf-8"))
        for path in PACKAGE_DIR.glob("*.py")
    }
    offenders = {}
    for directory in ("src", "tests", "scripts", "bench"):
        for path in sorted((REPO_DIR / directory).rglob("*.py")):
            names = stray_imports(path.read_text(encoding="utf-8"), bindings,
                                  in_package=path.parent == PACKAGE_DIR)
            if names:
                offenders[str(path.relative_to(REPO_DIR))] = names
    assert offenders == {}


def test_importing_the_package_loads_no_module():
    """``import latecut`` loads no submodule (so runs no kernel self-check),
    and ``latecut.distill`` is the module, not a function of that name."""
    code = (
        "import sys, types\n"
        "import latecut\n"
        "print(sorted(m for m in sys.modules if m.startswith('latecut.')))\n"
        "import latecut.distill as d\n"
        "print(isinstance(d, types.ModuleType))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO_DIR,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.split("\n")[:2] == ["[]", "True"]
