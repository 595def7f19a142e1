"""Source hygiene, by stdlib-only AST checks.

* No module in src/ or tests/ imports a name it never uses.  A name counts
  as used when it appears as a ``Name`` anywhere in the module or is listed
  in the module's ``__all__``; ``from __future__`` imports are exempt.
* Every top-level definition in src/lipdeg/ is reached from the command
  line, the benchmark or a kept test oracle (see ``unreached``), and every
  method or property of its classes is read somewhere as an attribute
  (see ``unread_methods``).
* src/ holds no ``assert`` statement: ``python -O`` strips them.
* src/lipdeg/ touches numpy.fft through one transform pair, one
  ``rfftn`` and one ``irfftn``; ``fftfreq`` is the only other name it reads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
PACKAGE = ROOT / "src" / "lipdeg"

# exact oracles and constructors that only tests call (the float kernels
# are checked against them), and accessors that only tests read
TEST_ORACLES = (
    "evaluate_relations",
    "relation_defect",
    "basis_element",
    "volume_element",
    "project_upto",
    "coefficient",
    "component",
    "degree_target",
)


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every module- or function-level import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import json\nimport math\nfrom os import path as p, sep\n"
        "__all__ = ['sep']\n"
        "def f(x: p) -> float:\n    return math.pi\n"
    )
    assert unused_imports(mod) == ["json (line 2)"]


def _read_names(node) -> set:
    """Identifiers a node reads: bare names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _defined_names(node) -> list:
    """Names a top-level statement defines (dunders such as __all__ excluded)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def unreached(package: Path, entry: str, clients: list, oracles=()) -> list:
    """Top-level definitions of ``package`` that no root reaches.

    Roots are every definition in the ``entry`` module, every name the
    ``clients`` files read or import, every name in ``oracles``, and every
    name a module reads outside its definitions at import time.  Reaching a
    definition reaches every name its body reads; names resolve across
    modules by name alone.  Imports and ``__all__`` strings are no use.
    """
    defs = {}  # name -> [(module, node)]
    roots = set(oracles)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            names = _defined_names(node)
            for name in names:
                defs.setdefault(name, []).append((path.stem, node))
            if path.stem == entry:
                roots.update(names)
            if not names and not isinstance(
                node, (ast.Import, ast.ImportFrom, ast.Assign, ast.AnnAssign)
            ):
                roots |= _read_names(node)
    for path in clients:
        tree = ast.parse(path.read_text(), filename=str(path))
        roots |= _read_names(tree)
        roots |= set(_imported(tree))
    seen, todo = set(), [n for n in roots if n in defs]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for _, node in defs[name]:
            todo.extend(n for n in _read_names(node) if n in defs and n not in seen)
    return sorted(
        f"{mod}.{name}"
        for name, sites in defs.items()
        if name not in seen
        for mod, _ in sites
    )


def test_every_definition_is_reached():
    clients = sorted((ROOT / "perfbench").glob("*.py"))
    assert unreached(PACKAGE, "cli", clients, TEST_ORACLES) == []


def test_reach_check_sees_dead_code(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "cli.py").write_text("from .core import run\ndef main():\n    return run()\n")
    (pkg / "core.py").write_text(
        "__all__ = ['run', 'dead']\n"
        "LIMIT = 3\n"
        "def run():\n    return _helper() + LIMIT\n"
        "def _helper():\n    return 1\n"
        "def dead():\n    return _orphan()\n"
        "def _orphan():\n    return 2\n"
        "def oracle():\n    return 4\n"
        "def bench_only():\n    return 5\n"
    )
    client = tmp_path / "bench.py"
    client.write_text("from pkg.core import bench_only\n")
    assert unreached(pkg, "cli", [client], ("oracle",)) == ["core._orphan", "core.dead"]


def unread_methods(package: Path, clients: list, oracles=()) -> list:
    """Non-dunder methods and properties of ``package`` classes that no
    ``x.name`` in the package or the ``clients`` files reads, unless
    ``oracles`` names them."""
    read, methods = set(oracles), []
    for path in sorted(package.glob("*.py")) + list(clients):
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if path.parent != package:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                methods += [
                    (f"{path.stem}.{cls.name}.{node.name}", node.name)
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
    return sorted(qual for qual, name in methods if name not in read)


def test_every_method_is_read():
    clients = sorted((ROOT / "perfbench").glob("*.py"))
    assert unread_methods(PACKAGE, clients, TEST_ORACLES) == []


def test_method_check_sees_dead_method(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "core.py").write_text(
        "class A:\n"
        "    def __init__(self):\n        self.v = self._helper()\n"
        "    def _helper(self):\n        return 1\n"
        "    @property\n    def size(self):\n        return self.v\n"
        "    def dead(self):\n        return 2\n"
        "    def oracle(self):\n        return 3\n"
        "    def bench_only(self):\n        return 4\n"
        "def run():\n    return A().size\n"
    )
    client = tmp_path / "bench.py"
    client.write_text("from pkg.core import A\nA().bench_only()\n")
    assert unread_methods(pkg, [client], ("oracle",)) == ["core.A.dead"]


def test_no_assert_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def fft_names(path: Path) -> list:
    """Every numpy.fft name a module reads or imports, one entry per site."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "fft"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")
        ):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            out.extend(alias.name for alias in node.names)
    return sorted(out)


def test_one_transform_pair():
    names = [n for path in sorted(PACKAGE.glob("*.py")) for n in fft_names(path)]
    assert [n for n in names if n != "fftfreq"] == ["irfftn", "rfftn"]


def test_fft_check_sees_every_transform(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import numpy as np\nfrom numpy.fft import ifftn\n"
        "def f(x):\n    y = np.fft.rfftn(x)\n    g = np.fft.fftn\n"
        "    return np.fft.irfftn(y), g, np.fft.fftfreq(4), ifftn\n"
    )
    assert fft_names(mod) == ["fftfreq", "fftn", "ifftn", "irfftn", "rfftn"]
