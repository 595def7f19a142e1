"""Source hygiene, by stdlib-only AST checks and one traced session.

* No module in src/ or tests/ imports a name it never uses.  A name counts
  as used when it appears as a ``Name`` anywhere in the module or is listed
  in the module's ``__all__``; ``from __future__`` imports are exempt.
* Every top-level definition in src/lipdeg/ is reached by name from the
  command line, the benchmark or a listed exemption (see ``unreached``);
  this is what catches an unused module constant.
* Every statement in src/lipdeg/ runs (see ``unexecuted``).  A fresh
  interpreter sets ``sys.settrace`` before it imports lipdeg, then runs
  ``SESSION``: the command lines of ``CLI_CALLS`` at N <= 16 with one or
  two restarts (and one on the 64^3 grid, and one synth whose band stream
  meets pairs next to its floor), then the benchmark's ``algebra``,
  ``spectral`` and ``pipeline`` job lists at ``"smoke"`` size.  Threads
  the session starts are traced too.  A statement counts as run when a
  line of its own (its header, for a compound statement) reports
  a line event.  Docstrings, ``raise`` statements and ``except`` bodies
  are exempt; every other statement the session leaves unrun must be
  counted in ``UNEXECUTED``, and an entry whose count no longer matches
  fails, so the list cannot go stale.
* src/ holds no ``assert`` statement: ``python -O`` strips them.
* src/lipdeg/ imports nothing from tests/, whose ``oracles`` module holds
  the exact arithmetic the tests check the kernels against.
* src/lipdeg/ touches numpy.fft through one forward and one inverse
  transform: ``rfftn`` is read only in the forward one, ``ifft`` and
  ``irfft`` only in the inverse one, and ``fftfreq`` only in
  ``DyadicPartition``.
* Importing ``lipdeg.cli`` starts no thread and loads no
  ``concurrent.futures``.
* Only bands.py names ``build_partition``, ``_chi`` and ``_window``: a
  form's grid fixes its band partition, which bands derives, and bands
  alone owns the band window.
* ``DyadicPartition`` alone reads ``fftfreq`` and ``unique``: a grid's
  cached partition owns its frequency lattice and radius classes.
* ``bands`` carries out its table-driven spectral operators through one
  kernel: the per-operator loops are gone, only the kernel's collector and
  ``band_fields`` turn a spectrum into a field, and only ``_spectra``
  turns a plane into a spectrum.  The collector takes spectra alone (it
  has no ``spectral`` flag) from projection, d and the primitive;
  ``wedge_grid`` sums its grid planes itself.
* ``gridio.write_csv`` is the one site that makes a ``csv.writer``.
* The search defaults, 16 restarts and 300 iterations, are written in
  ``scalability.SearchConfig`` alone; cli.py and acceptance.py read them
  from there.
* ``exterior.wedge_nonzeros`` alone reads ``merge_sign``: it is the one
  table of the Koszul sign, and no dense ``wedge_table`` is left.
* ``scalability._search_single`` is the one site that reads
  ``EmbeddingSearch`` (``search_embedding``'s return annotation aside, which
  no module evaluates): it builds each summand's result, and
  ``search_embedding`` keeps the best as is.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
PACKAGE = ROOT / "src" / "lipdeg"

_VERIFY = "verify only: test_acceptance.py and criterion 11's CLI test run it"
_GUARD = "guard for a valid input the session does not produce"

# qualname -> (statements the session leaves unrun, why).  A qualname is the
# module, then the enclosing classes and functions; the module alone stands
# for its top-level statements.
UNEXECUTED = {
    "acceptance.CriterionResult.line": (3, _VERIFY),
    "acceptance._scaled_profile": (1, _VERIFY),
    "acceptance.criterion_1": (4, _VERIFY),
    "acceptance.criterion_2": (11, _VERIFY),
    "acceptance.criterion_3": (3, _VERIFY),
    "acceptance.criterion_4": (25, _VERIFY),
    "acceptance.criterion_5": (18, _VERIFY),
    "acceptance.criterion_6": (11, _VERIFY),
    "acceptance.criterion_7": (14, _VERIFY),
    "acceptance.criterion_8": (11, _VERIFY),
    "acceptance.criterion_9": (14, _VERIFY),
    "acceptance.criterion_10": (4, _VERIFY),
    "acceptance.criterion_11": (6, _VERIFY),
    "acceptance.run_all": (2, _VERIFY),
    "cli._cmd_verify": (5, _VERIFY),
    "cli": (1, "the `python -m lipdeg.cli` entry point"),
    "bands.lp_norm": (1, "the L1 norm, which tests check band masses against"),
    "bands.grid_form": (5, "components: tests build their fixtures with it"),
    "bands.GridForm.__post_init__": (1, "non-float64 data: " + _GUARD),
    "bands.spectral_support": (1, "zero form: " + _GUARD),
    "bands.product_support_radius": (1, "empty support: " + _GUARD),
    "exterior.signature_exact": (2, "null direction: " + _GUARD),
    "gridio.read_band_profile": (1, "blank CSV row: " + _GUARD),
    "rings._exact_solve": (1, "underdetermined products: " + _GUARD),
    "scalability._pairing_witness": (1, "float-singular form: " + _GUARD),
    "scalability.check_middle_form": (1, "float-singular form: " + _GUARD),
    "scalability._Workspace.project_top": (2, "NaN input, vanishing top value: " + _GUARD),
    "scalability._search_single": (2, "no usable start: " + _GUARD),
}


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


def unreached(package: Path, entry: str, clients: list, exempt=()) -> list:
    """Top-level definitions of ``package`` that no root reaches.

    Roots are every definition in the ``entry`` module, every name the
    ``clients`` files read or import, every name in ``exempt``, and every
    name a module reads outside its definitions at import time.  Reaching a
    definition reaches every name its body reads; names resolve across
    modules by name alone.  Imports and ``__all__`` strings are no use.
    """
    defs = {}  # name -> [(module, node)]
    roots = set(exempt)
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
    exempt = [q.split(".")[1] for q in UNEXECUTED if "." in q]
    assert unreached(PACKAGE, "cli", clients, exempt) == []


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


# -- line-level reach ---------------------------------------------------------

# Runs in a fresh interpreter: argv is the package directory, the session
# source and the output path.  Only frames of files under the package get a
# local trace function, so the rest of the session runs at full speed.
_TRACER = """
import json, os, sys, threading
package, session, out = sys.argv[1] + os.sep, sys.argv[2], sys.argv[3]
hits = {}
def on_line(frame, event, arg):
    if event == "line":
        hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return on_line
def on_call(frame, event, arg):
    return on_line if frame.f_code.co_filename.startswith(package) else None
sys.settrace(on_call)
threading.settrace(on_call)
exec(compile(session, "<session>", "exec"), {"__name__": "__session__"})
sys.settrace(None)
with open(out, "w") as fh:
    json.dump({path: sorted(lines) for path, lines in hits.items()}, fh)
"""


def traced_lines(package: Path, session: str, tmp_path: Path) -> dict:
    """Path -> set of lines that report a line event while ``session`` runs."""
    out = tmp_path / "lines.json"
    res = subprocess.run(
        [sys.executable, "-c", _TRACER, str(package), session, str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    return {path: set(lines) for path, lines in json.loads(out.read_text()).items()}


def _statements(body: list, qual: str, exempt: bool, docstring: bool):
    """(statement, qualname, exempt) for every statement under ``body``."""
    for i, node in enumerate(body):
        is_doc = (
            docstring and i == 0 and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        )
        yield node, qual, exempt or is_doc or isinstance(node, ast.Raise)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _statements(node.body, f"{qual}.{node.name}", exempt, True)
            continue
        for name in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, name, []), qual, exempt, False)
        for handler in getattr(node, "handlers", []):
            yield from _statements(handler.body, qual, True, False)


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement outside its nested statements: decorators
    and header for a compound statement, every line for a simple one."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    nested = [
        getattr(node, name)[0].lineno
        for name in ("body", "orelse", "finalbody", "handlers")
        if getattr(node, name, None)
    ]
    return range(start, (min(nested) if nested else node.end_lineno + 1))


def unexecuted(package: Path, hits: dict) -> dict:
    """Qualname -> lines of the non-exempt statements that never ran."""
    out = {}
    for path in sorted(package.glob("*.py")):
        ran = hits.get(str(path), set())
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, qual, exempt in _statements(tree.body, path.stem, False, True):
            if not exempt and ran.isdisjoint(_own_lines(node)):
                out.setdefault(qual, []).append(node.lineno)
    return out


def reach_findings(unrun: dict, allowed: dict) -> list:
    """Unrun statements ``allowed`` does not count, and stale counts."""
    found = [
        f"{qual}: line {', '.join(map(str, lines))} never ran"
        for qual, lines in sorted(unrun.items())
        if qual not in allowed
    ]
    for qual, (count, _) in sorted(allowed.items()):
        lines = unrun.get(qual, [])
        if len(lines) != count:
            found.append(f"{qual}: {len(lines)} statements never ran {lines}, exemption says {count}")
    return found


# One command line per surface and branch, at N <= 16 and one or two
# restarts, and one on the 64^3 grid; "{tmp}" is a scratch directory that
# later calls read back.  At period 0.5091 each layer's frequency sits
# where a band window is about 2e-12, so the band stream decides pairs
# within a factor of a few of its floor.
CLI_CALLS = (
    ["scalable", "--preset", "Xk", "--k", "3", "--restarts", "1"],
    ["scalable", "--preset", "X4", "--restarts", "2", "--max-iters", "10"],
    ["scalable", "--preset", "CPn", "--n", "2", "--restarts", "1"],
    ["scalable", "--preset", "S2xS2", "--restarts", "1", "--ambient", "4", "5"],
    ["scalable", "--preset", "connected-sum", "--p", "1", "--q", "1", "--restarts", "1"],
    ["scalable", "--preset", "torus(2)", "--restarts", "1"],
    ["scalable", "--preset", "torus", "--n", "2", "--restarts", "1"],
    ["scalable", "--preset", "CP2", "--ambient", "6", "--restarts", "1", "--max-iters", "20"],
    ["scalable", "--preset", "torus(3)", "--ambient", "6", "--restarts", "1", "--max-iters", "20"],
    ["lp", "--dim", "2", "--degree", "1", "--resolution", "16", "--out", "{tmp}"],
    ["lp", "--dim", "2", "--degree", "2", "--resolution", "16"],
    ["lp", "--dim", "3", "--degree", "1", "--resolution", "64"],
    ["bound", "--sweep", "10", "12", "--uniform", "--tail", "hold", "--out", "{tmp}"],
    ["bound", "--scale", "1048576", "--gap", "0.3", "0.6"],
    ["synth", "--levels", "2", "--resolution", "16", "--out", "{tmp}"],
    ["profile", "--input", "{tmp}/ensemble.gfrm", "--out", "{tmp}"],
    ["bound", "--gridform", "{tmp}/ensemble.gfrm", "--sweep", "4", "5"],
    ["plan", "--p", "2", "--levels", "6", "--out", "{tmp}"],
    ["plan", "--p", "3", "--levels", "4", "--degree-count", "3", "--geometry", "unit"],
    ["synth", "--levels", "3"],
    ["synth", "--levels", "2", "--resolution", "16", "--period", "0.5091"],
    ["exponent", "--preset", "s3-bundle"],
    ["exponent", "--preset", "sphere", "--t", "3"],
)

SESSION = f"""
import contextlib, io, sys, tempfile
from pathlib import Path
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
from lipdeg import cli
import workloads
from tracer import Tracer

with tempfile.TemporaryDirectory() as tmp:
    for argv in {CLI_CALLS!r}:
        argv = [a.format(tmp=tmp) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == 0, (argv, err.getvalue())
    tracer = Tracer()
    jobs = workloads.algebra(tracer, 1, "smoke") + workloads.spectral(tracer, 1, "smoke")
    jobs += workloads.pipeline(tracer, 1, "smoke", Path(tmp))
    for _, job in jobs:
        job()
"""


def test_every_statement_runs(tmp_path):
    hits = traced_lines(PACKAGE, SESSION, tmp_path)
    assert reach_findings(unexecuted(PACKAGE, hits), UNEXECUTED) == []


def test_reach_check_sees_dead_branch(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "core.py").write_text(
        '"""Module docstring."""\n'
        "LIMIT = 3\n"
        "class A:\n"
        "    def used(self, x):\n"
        '        """Docstring."""\n'
        "        if x > LIMIT:\n"
        "            x = LIMIT\n"
        "        if x < 0:\n"
        "            raise ValueError(x)\n"
        "        try:\n"
        "            y = 1 / x\n"
        "        except ZeroDivisionError:\n"
        "            y = 0.0\n"
        "        return y\n"
        "    def oracle(self):\n"
        "        return 4\n"
        "    def stale(self):\n"
        "        return 5\n"
        "@staticmethod\n"
        "def dead(\n"
        "    x,\n"
        "):\n"
        "    return x\n"
        "if __name__ == '__main__':\n"
        "    dead(1)\n"
    )
    session = f"import sys\nsys.path.insert(0, {str(tmp_path)!r})\nfrom pkg.core import A\n"
    session += "A().used(1)\nA().stale()\n"
    unrun = unexecuted(pkg, traced_lines(pkg, session, tmp_path))
    assert unrun == {"core.A.used": [7], "core.A.oracle": [16], "core.dead": [23], "core": [25]}
    allowed = {"core.A.oracle": (1, "test oracle"), "core.A.stale": (1, "stale")}
    assert reach_findings(unrun, allowed) == [
        "core: line 25 never ran",
        "core.A.used: line 7 never ran",
        "core.dead: line 23 never ran",
        "core.A.stale: 0 statements never ran [], exemption says 1",
    ]


def test_no_assert_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_src_imports_nothing_from_tests():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("tests", "oracles") for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _fft_names_in(node) -> list:
    """Every numpy.fft name read or imported under an AST node."""
    out = []
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Attribute)
            and sub.value.attr == "fft"
            and isinstance(sub.value.value, ast.Name)
            and sub.value.value.id in ("np", "numpy")
        ):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and sub.module == "numpy.fft":
            out.extend(alias.name for alias in sub.names)
    return out


def fft_names(path: Path) -> list:
    """Every numpy.fft name a module reads or imports, one entry per site."""
    return sorted(_fft_names_in(ast.parse(path.read_text(), filename=str(path))))


def fft_readers(path: Path) -> list:
    """(numpy.fft name, top-level definition) of every site in a module that
    reads or imports a numpy.fft name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        (name, getattr(top, "name", None)) for top in tree.body for name in _fft_names_in(top)
    )


def test_one_forward_and_one_inverse_transform():
    sites = [site for path in sorted(PACKAGE.glob("*.py")) for site in fft_readers(path)]
    assert sites == [
        ("fftfreq", "DyadicPartition"),
        ("ifft", "_field"),
        ("irfft", "_field"),
        ("rfftn", "_spectrum"),
    ]


def test_import_starts_no_thread():
    code = (
        "import sys, threading\nimport lipdeg.cli\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert res.stdout.split() == ["False", "1"], res.stderr


def _naming(name: str) -> list:
    """Files of the package that read or import ``name``."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if name in _read_names(tree) | set(_imported(tree)):
            names.append(path.name)
    return names


def test_only_bands_names_build_partition():
    assert _naming("build_partition") == ["bands.py"]


def test_only_bands_names_the_band_window():
    assert _naming("_chi") == _naming("_window") == ["bands.py"]


def _owners(name: str) -> list:
    """(file, top-level definition) of every site in the package that reads
    ``name``, as an attribute or a bare name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            out += [
                (path.name, getattr(top, "name", None))
                for sub in ast.walk(top)
                if isinstance(sub, ast.Attribute) and sub.attr == name
                or isinstance(sub, ast.Name) and sub.id == name
            ]
    return out


def test_only_the_partition_builds_the_lattice():
    for gone in ("_freq_axis", "_freq_radius", "_radius_classes"):
        assert _naming(gone) == []
    assert _owners("fftfreq") == [("bands.py", "DyadicPartition")]
    assert _owners("unique") == [("bands.py", "DyadicPartition")]


def _top_def(module: str, name: str):
    """The top-level definition ``name`` of the package module ``module``."""
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    return next(top for top in tree.body if getattr(top, "name", None) == name)


def test_one_operator_kernel():
    for gone in ("_apply_multiplier", "_synthesize"):
        assert _naming(gone) == []
    assert _owners("_field") == [("bands.py", "_collect"), ("bands.py", "band_fields")]
    assert _owners("_spectrum") == [("bands.py", "_spectra")]
    assert _owners("_collect") == [
        ("bands.py", "_radial_wedge"), ("bands.py", "exterior_derivative"), ("bands.py", "primitive"),
    ]
    params = _top_def("bands.py", "_collect").args
    assert "spectral" not in [arg.arg for arg in params.args + params.kwonlyargs]


def test_one_sign_table():
    assert _naming("wedge_table") == []
    assert _owners("merge_sign") == [("exterior.py", "wedge_nonzeros")]


def test_one_search_result_builder():
    """search_embedding names EmbeddingSearch once, in its return annotation,
    which no module evaluates (each postpones annotations)."""
    assert _owners("EmbeddingSearch") == [
        ("scalability.py", "_search_single"), ("scalability.py", "search_embedding"),
    ]
    returns = _top_def("scalability.py", "search_embedding").returns
    assert isinstance(returns, ast.Name) and returns.id == "EmbeddingSearch"


def test_one_csv_writer():
    assert _owners("writer") == [("gridio.py", "write_csv")]


def test_search_defaults_live_in_search_config():
    def literals(node) -> set:
        return {sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant)}

    assert {16, 300} <= literals(_top_def("scalability.py", "SearchConfig"))
    for module in ("cli.py", "acceptance.py"):
        assert not {16, 300} & literals(ast.parse((PACKAGE / module).read_text(), filename=module))


def test_fft_check_sees_every_transform(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import numpy as np\nfrom numpy.fft import ifftn\n"
        "def f(x):\n    y = np.fft.rfftn(x)\n    g = np.fft.fftn\n"
        "    return np.fft.irfftn(y), g, np.fft.fftfreq(4), ifftn\n"
    )
    assert fft_names(mod) == ["fftfreq", "fftn", "ifftn", "irfftn", "rfftn"]
    assert fft_readers(mod) == [
        ("fftfreq", "f"), ("fftn", "f"), ("ifftn", None), ("irfftn", "f"), ("rfftn", "f"),
    ]
