"""Static hygiene of the package: no dead definitions, no unused imports,
no function that the benchmark traces by name missing, the definitions that
only the benchmark reaches listed, no cache that never evicts unless its
keys are small integers, no numpy in the package, and each CLI command
loading only the modules it uses.

A definition counts as used when its name occurs anywhere in src/ or
perfbench/ as an identifier, an attribute, an imported name or a string
constant (perfbench traces functions by their string names).  A use from
tests/ does not count: src/ holds only what the CLI, the `verify` checks and
the benchmark reach, and a reference oracle lives in the test module that
uses it.  The names listed in `__all__` do not count either: an export alone
is not a use.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ybe_forge"
TREES = ("src", "perfbench")  # the trees whose uses count


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_export_list(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _uses(tree: ast.Module) -> Counter:
    exported = {
        id(c) for node in tree.body if _is_export_list(node) for c in ast.walk(node.value)
    }
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in exported:
                out.update(node.value.split("."))
    return out


def _definitions(tree: ast.Module):
    """Top-level functions, classes and aliases (`Name = Other`), and the
    non-dunder methods of the classes, as (qualified name, bare name)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield "%s.%s" % (node.name, item.name), item.name


def _tree_uses(root: Path, tree_name: str) -> Counter:
    uses: Counter = Counter()
    for path in sorted((root / tree_name).rglob("*.py")):
        uses += _uses(_parse(path))
    return uses


def _package_definitions(root: Path):
    """(module:qualified name, bare name) of every definition in the package."""
    for path in sorted((root / "src" / "ybe_forge").glob("*.py")):
        for qualname, name in _definitions(_parse(path)):
            yield "%s:%s" % (path.stem, qualname), name


def dead_definitions(root: Path = ROOT) -> list[str]:
    uses = sum((_tree_uses(root, tree_name) for tree_name in TREES), Counter())
    return [qualname for qualname, name in _package_definitions(root) if not uses[name]]


def benchmark_only_definitions(root: Path = ROOT) -> list[str]:
    """The package definitions that perfbench/ uses and src/ does not."""
    src, bench = (_tree_uses(root, tree_name) for tree_name in TREES)
    return [qualname for qualname, name in _package_definitions(root)
            if bench[name] and not src[name]]


def unused_imports(package: Path = PACKAGE) -> list[str]:
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = _parse(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += ["%s:%d %s" % (path.stem, line, name)
                   for name, line in imported.items() if name not in used]
    return unused


def test_no_dead_definitions():
    assert dead_definitions() == []


# The package definitions that only the benchmark reaches: perfbench/
# traces or calls them by name and nothing in src/ uses them.  Each is debt
# owed to the next change to the benchmark, which can move it off them so
# that they can go; a new entry needs a reason just as strong.
BENCHMARK_ONLY = [
    "document:TensorDocument.to_tensor",
    "exact:interpolate",
    "stolin:frobenius_split",
]


def test_benchmark_only_definitions():
    assert benchmark_only_definitions() == BENCHMARK_ONLY


def test_no_unused_imports():
    assert unused_imports() == []


def test_traced_layers_resolve():
    """Every (module, function) pair that perfbench/spans.py traces by name
    is a function of ybe_forge: a layer renamed or deleted in src/ would
    otherwise surface only when the benchmark runs."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        "%s.%s" % (mod, fn) for mod, fn, _, _ in spans.LAYERS
        if not callable(getattr(importlib.import_module("ybe_forge." + mod), fn, None))
    ]
    assert missing == []


def test_benchmark_constructor_calls():
    """The calls perfbench/run.py makes with keywords and defaults still
    work: ThetaContext(tau=...) with 60 terms, a document with provenance
    equal to itself after the round trip.  The empty defaults of GlTensor2
    and TensorDocument are fresh dicts."""
    from ybe_forge.document import TensorDocument, document_from_tensor, dumps, loads
    from ybe_forge.elliptic import ThetaContext, belavin_cybe_residual, belavin_r
    from ybe_forge.lie import COMPLEX, GlTensor2

    ctx = ThetaContext(tau=1j)
    assert (ctx.tau, ctx.terms) == (1j, 60)
    assert belavin_cybe_residual(2, 1, ctx, (0.1, 0.25, 0.4)) < 1e-9
    doc = document_from_tensor(belavin_r(2, 1, ctx, 0.1, 0.3), {"source": "elliptic"})
    assert loads(dumps(doc)) == doc
    a, b = GlTensor2(2, COMPLEX), GlTensor2(2, COMPLEX)
    assert a.terms == {} and a.terms is not b.terms
    c, d = TensorDocument(2, COMPLEX, ()), TensorDocument(2, COMPLEX, ())
    assert c.provenance == {} and c.provenance is not d.provenance


def _is_unbounded_cache(dec) -> bool:
    """`@cache` or `@lru_cache(maxsize=None)`, under any module prefix."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(dec, ast.Call):
        return False
    args = list(dec.args[:1]) + [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
    return any(isinstance(a, ast.Constant) and a.value is None for a in args)


def unbounded_caches(package: Path = PACKAGE) -> list[str]:
    """module:name of every function in the package whose cache never
    evicts."""
    return ["%s:%s" % (path.stem, node.name)
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(_parse(path))
            if isinstance(node, ast.FunctionDef)
            and any(_is_unbounded_cache(d) for d in node.decorator_list)]


# The functions whose caches never evict.  Each is keyed by small integers
# (n, d, e, m) bounded by the CLI's N_MAX, so the set of keys is finite; a
# cache keyed by floats, exact points or contexts must set a maxsize.
UNBOUNDED_CACHES = [
    "cuspidal:build_j",
    "cuspidal:_ved_coords",
    "cuspidal:sol_family",
    "exact:root_table",
    "lie:casimir",
    "lie:_root_values",
    "lie:heisenberg_entries",
    "lie:heisenberg",
]


def test_unbounded_caches_are_integer_keyed():
    assert unbounded_caches() == UNBOUNDED_CACHES


def test_scan_sees_an_unbounded_cache(tmp_path):
    """Negative control: each spelling of a cache that never evicts is
    flagged, and a bounded one is not."""
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n\n"
        "@lru_cache(maxsize=None)\ndef a(ctx):\n    return ctx\n\n"
        "@functools.lru_cache(None)\ndef b(ctx):\n    return ctx\n\n"
        "@cache\ndef c(ctx):\n    return ctx\n\n"
        "@lru_cache(maxsize=32)\ndef d(ctx):\n    return ctx\n\n"
        "@lru_cache\ndef e(ctx):\n    return ctx\n"
    )
    assert unbounded_caches(tmp_path) == ["mod:a", "mod:b", "mod:c"]


def _python(code: str, *args: str, flags: tuple = (), **env_extra: str) -> str:
    """The last stdout line of `code` run in a new interpreter on ./src,
    started with the interpreter options `flags`."""
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *flags, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_no_module_imports_numpy():
    """numpy is a test dependency only: no module of the package imports
    it, at the top or inside a function."""
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append("%s:%d" % (path.stem, node.lineno))
    assert importers == []


def test_cli_import_leaves_numpy_unloaded():
    """numpy takes about half of a process's start-up when it loads; no
    command's import path may load it, also not through a dependency."""
    code = "import sys, ybe_forge.cli, ybe_forge.verify; print('numpy' in sys.modules)"
    assert _python(code) == "False"


# Standard-library modules that add to the start-up of every request and
# that no command needs: `dataclasses` alone pulls in inspect, ast, dis and
# tokenize.
_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
# The command (if any) runs through the CLI's entry point, then the process
# prints the package modules it loaded, whether the process pool is among
# them, and which of `_HEAVY` it loaded.
_LOADED = """import json, sys
from ybe_forge import cli
if sys.argv[1:]:
    try:
        cli.main(args=sys.argv[1:])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(json.dumps([sorted(m.split(".")[1] for m in sys.modules if m.startswith("ybe_forge.")),
                  "concurrent.futures.process" in sys.modules,
                  [m for m in %r if m in sys.modules]]))
""" % (_HEAVY,)
_CLI_CORE = ["cli", "document", "exact", "lie"]


@pytest.mark.parametrize("args, extra", [
    ((), []),
    (("jmatrix", "3", "1"), ["cuspidal"]),
    (("rational", "3", "1", "--x", "1/3", "--y", "2"), ["cuspidal"]),
    (("stolin", "3", "1", "--k-matrix", "neg-j", "--x", "1/3", "--y", "2"),
     ["cuspidal", "stolin"]),
    (("elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2"), ["elliptic"]),
    (("verify", "--suite", "rational", "--n-max", "2"),
     ["cuspidal", "elliptic", "stolin", "verify"]),
], ids=["import", "jmatrix", "rational", "stolin", "elliptic", "verify"])
def test_command_loads_only_its_modules(args, extra):
    """A CLI process imports the modules its command uses and no others; a
    serial `verify` leaves multiprocessing unloaded."""
    loaded, pool, _ = json.loads(_python(_LOADED, *args, FORGE_THREADS="1"))
    assert loaded == sorted(_CLI_CORE + extra)
    assert not pool


# The modules that the interpreter and `site` load before the package (a
# `.pth` file may add some from outside the standard library) are left out.
_FOREIGN = """import json, sys
before = set(sys.modules)
from ybe_forge import cli
try:
    cli.main(args=["jmatrix", "2", "1"], prog_name="ybe-forge")
except SystemExit as exc:
    code = exc.code
top = {m.split(".")[0] for m in set(sys.modules) - before}
print(json.dumps([code, sorted(top - set(sys.stdlib_module_names) - {"ybe_forge"})]))
"""


def test_cli_loads_only_the_standard_library():
    """A request loads no module from outside the standard library: the
    CLI parses its arguments itself, so no parsing library (such as click)
    adds to the start-up of every request."""
    assert json.loads(_python(_FOREIGN)) == [0, []]


@pytest.mark.parametrize("args", [
    ("jmatrix", "3", "1"),
    ("rational", "3", "1", "--x", "1/3", "--y", "2"),
    ("stolin", "3", "1", "--k-matrix", "neg-j", "--x", "1/3", "--y", "2"),
    ("elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2"),
    ("verify", "--suite", "rational", "--n-max", "2"),
], ids=["jmatrix", "rational", "stolin", "elliptic", "verify"])
def test_command_loads_no_heavy_standard_modules(args):
    """A request loads none of `_HEAVY`.  The probe runs under -S, so that
    the modules `site` loads itself (a `.pth` file may load typing and re)
    hide none of them."""
    heavy = json.loads(_python(_LOADED, *args, flags=("-S",), FORGE_THREADS="1"))[2]
    assert heavy == []


def test_scan_sees_a_dead_helper(tmp_path):
    """The scan itself must flag an unused alias, function, method and
    import, and a helper that only a test references; a use from perfbench/
    counts, and is listed when it is the only one."""
    for tree_name in TREES + ("tests",):
        (tmp_path / tree_name).mkdir()
    pkg = tmp_path / "src" / "ybe_forge"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "import json\n"
        "from math import gcd\n\n"
        "Alias = int\n\n"
        "def used(a):\n    return gcd(a, 2)\n\n"
        "def orphan():\n    return 1\n\n"
        "def oracle():\n    return 2\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.v = used(4)\n\n"
        "    def spare(self):\n        return self.v\n\n"
        "__all__ = ['orphan', 'Box']\n"
    )
    (tmp_path / "perfbench" / "bench.py").write_text("from ybe_forge.mod import Box\nBox()\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from ybe_forge.mod import Box, oracle\nBox()\nassert oracle() == 2\n")
    assert dead_definitions(tmp_path) == ["mod:Alias", "mod:orphan", "mod:oracle", "mod:Box.spare"]
    # `Box` is exported and built in perfbench/ only
    assert benchmark_only_definitions(tmp_path) == ["mod:Box"]
    assert unused_imports(pkg) == ["mod:1 json"]
