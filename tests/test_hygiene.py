"""Static hygiene of the package: no dead definitions, no write-only fields,
no unused imports or parameters, no function that the benchmark traces by
name missing, the definitions that only the benchmark reaches listed, the
definitions of request modules that only `verify` reaches listed and no
such method, no module past the parser's token array, no cache that never
evicts unless its keys are small integers, no numpy in the package, and
each CLI command and `verify` suite loading only the modules it uses.

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
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ybe_forge"
TREES = ("src", "perfbench")  # the trees whose uses count
# `verify` and the route modules that only its checks import
VERIFY_MODULES = ("verify", "proofs", "residuals")


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


def verify_only_definitions(root: Path = ROOT) -> list[str]:
    """module:name of every definition of a request module (any module of
    the package but `VERIFY_MODULES`) whose name those modules use and no
    other module of the package does: code that only `verify` runs, which
    every request that loads its module compiles.  For a top-level
    definition a use in perfbench/ does not count, since perfbench traces
    functions by name wherever they are; a method that perfbench calls is
    not listed."""
    package = root / "src" / "ybe_forge"
    uses = {path.stem: _uses(_parse(path)) for path in sorted(package.glob("*.py"))}
    verify = sum((uses.pop(stem, Counter()) for stem in VERIFY_MODULES), Counter())
    others = sum(uses.values(), Counter())
    bench = _tree_uses(root, "perfbench")
    return [qualname for qualname, name in _package_definitions(root)
            if qualname.split(":")[0] not in VERIFY_MODULES and verify[name] and not others[name]
            and ("." not in qualname or not bench[name])]


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


# The methods whose reads do not count: they only compare or show objects of
# their own class, so a field read there alone is still write-only.
_SELF_SERVING = ("__eq__", "__hash__", "__repr__")


def _field_reads(tree: ast.Module, reads: list) -> None:
    """Append (field, class, method, on self) for every attribute of `tree`
    that is loaded or augmented (`x.field`, `x.field += 1`), with the
    innermost class and its method around it (None outside any)."""
    def visit(node, cls, method):
        if isinstance(node, ast.ClassDef):
            cls, method = node.name, None
        elif isinstance(node, ast.FunctionDef) and cls and method is None:
            method = node.name
        attr = node.target if isinstance(node, ast.AugAssign) else node
        if isinstance(attr, ast.Attribute) and (attr is not node or not isinstance(node.ctx, ast.Store)):
            on_self = isinstance(attr.value, ast.Name) and attr.value.id == "self"
            reads.append((attr.attr, cls, method, on_self))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, method)

    visit(tree, None, None)


def write_only_fields(root: Path = ROOT) -> list[str]:
    """module:Class.field of every attribute that an `__init__` of the
    package assigns on `self` and that no file in src/ or perfbench/ reads.
    A field counts as read when its name occurs as an attribute that is
    loaded or augmented (`x.field`, `x.field += 1`), except a read inside a
    class's `__eq__`, `__hash__` or `__repr__` (of its own fields, or of the
    other operand's, also of its class) and a `self.field` read inside
    another class, which is that class's own field."""
    reads: list = []
    for tree_name in TREES:
        for path in (root / tree_name).rglob("*.py"):
            _field_reads(_parse(path), reads)

    def is_read(field, owner):
        return any(attr == field and method not in _SELF_SERVING
                   and not (on_self and cls is not None and cls != owner)
                   for attr, cls, method, on_self in reads)

    out = []
    for path in sorted((root / "src" / "ybe_forge").glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__"):
                    continue
                out += ["%s:%s.%s" % (path.stem, cls.name, node.attr) for node in ast.walk(fn)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and not is_read(node.attr, cls.name)]
    return out


def unused_parameters(package: Path = PACKAGE) -> list[str]:
    """module:function(parameter) of every parameter of a function in the
    package, `self` and `cls` aside, that its body never reads, also not
    from a nested function."""
    out = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            out += ["%s:%s(%s)" % (path.stem, fn.name, p.arg) for p in params
                    if p.arg not in read and p.arg not in ("self", "cls")]
    return out


def test_no_dead_definitions():
    assert dead_definitions() == []


def test_no_write_only_fields():
    assert write_only_fields() == []


# The package definitions that only the benchmark reaches: perfbench/
# traces or calls them by name and nothing in src/ uses them.  Each is debt
# owed to the next change to the benchmark, which can move it off them so
# that they can go; a new entry needs a reason just as strong.
BENCHMARK_ONLY = [
    "elliptic:belavin_cybe_residual",
    "exact:interpolate",
    "lie:swap_tensor",
    "stolin:frobenius_split",
]


def test_benchmark_only_definitions():
    assert benchmark_only_definitions() == BENCHMARK_ONLY


# The definitions of request modules that only `verify` reaches: every
# request that loads their module compiles them and none runs them.
# perfbench traces, clears or calls each of them by name in its module, so
# they stay until the benchmark reads spans instead.  A new entry needs a
# reason as strong.
VERIFY_ONLY = [
    "cuspidal:sol_space",
    "cuspidal:g_elements",
    "cuspidal:psi_transport",
    "cuspidal:r_ansatz",
    "exact:eval_matrix_poly",
    "lie:is_unitary_pair",
    "stolin:frobenius_gram",
    "stolin:compare_pipelines",
    "stolin:build_order",
    "stolin:series_r",
]


def test_verify_only_definitions():
    assert verify_only_definitions() == VERIFY_ONLY


def test_scan_sees_a_verify_only_definition(tmp_path):
    """Negative control: a request-module function that only `verify` or
    a route module of it calls is listed, also when perfbench names it; one
    that another module calls and one that its own module calls are not."""
    pkg = tmp_path / "src" / "ybe_forge"
    pkg.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (pkg / "mod.py").write_text(
        "def fixture():\n    return 1\n\n"
        "def traced():\n    return 2\n\n"
        "def shared():\n    return 3\n\n"
        "def helper():\n    return 4\n\n"
        "def routed():\n    return 5\n\n"
        "def run():\n    return helper()\n"
    )
    (pkg / "cli.py").write_text("from .mod import run, shared\nrun() + shared()\n")
    (pkg / "verify.py").write_text(
        "from .mod import fixture, helper, shared, traced\n"
        "fixture() + traced() + shared() + helper()\n")
    (pkg / "proofs.py").write_text("from .mod import routed\nrouted()\n")
    (tmp_path / "perfbench" / "bench.py").write_text("LAYERS = [('mod', 'traced')]\n")
    assert verify_only_definitions(tmp_path) == ["mod:fixture", "mod:traced", "mod:routed"]


def test_scan_sees_a_verify_only_method(tmp_path):
    """Negative control of the method scan: a method of a request-module
    class that only `verify` or a route module calls is listed; one that a
    request module calls and one that perfbench calls are not."""
    pkg = tmp_path / "src" / "ybe_forge"
    pkg.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (pkg / "mod.py").write_text(
        "class Box:\n"
        "    def probe(self):\n        return 1\n\n"
        "    def gauge(self):\n        return 2\n\n"
        "    def used(self):\n        return 3\n\n"
        "    def timed(self):\n        return 4\n"
    )
    (pkg / "cli.py").write_text("from .mod import Box\nBox().used()\n")
    (pkg / "verify.py").write_text("from .mod import Box\nBox().probe() + Box().used()\n")
    (pkg / "residuals.py").write_text("from .mod import Box\nBox().gauge() + Box().timed()\n")
    (tmp_path / "perfbench" / "bench.py").write_text(
        "from ybe_forge.mod import Box\nBox().timed()\n")
    assert verify_only_definitions(tmp_path) == ["mod:Box.probe", "mod:Box.gauge"]


def test_no_unused_imports():
    assert unused_imports() == []


def test_no_unused_parameters():
    assert unused_parameters() == []


def test_scan_sees_an_unused_parameter(tmp_path):
    """Negative control: a positional, a keyword-only and a ** parameter
    that the body never reads are flagged; one read only by a nested
    function, a * parameter read, and `self` are not."""
    (tmp_path / "mod.py").write_text(
        "def used(a, b=1, *rest, key, **extra):\n    return a + len(rest)\n\n"
        "def closure(a, b):\n    def inner():\n        return a\n    return inner\n\n"
        "class Box:\n    def __init__(self, v, spare):\n        self.v = v\n"
    )
    assert unused_parameters(tmp_path) == [
        "mod:used(b)", "mod:used(key)", "mod:used(extra)", "mod:closure(b)", "mod:__init__(spare)"]


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


def _benchmark_attribute_chains(path: Path) -> set:
    """(module, name) of every `P.<module>.<name>` chain in the file: the
    names perfbench reaches through `program()`."""
    return {(node.value.attr, node.attr) for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "P"}


def test_benchmark_attributes_resolve():
    """Every `P.<module>.<name>` that a file of perfbench/ reaches (the
    benchmark and its own tests) is an attribute of ybe_forge.<module>: a
    name moved to another module would otherwise surface only when the
    benchmark or its tests run."""
    chains = set().union(*(_benchmark_attribute_chains(path)
                           for path in (ROOT / "perfbench").glob("*.py")))
    assert {("lie", "cybe_residual_two_variable"), ("cli", "dumps")} <= chains
    assert len(chains) > 10
    missing = sorted("%s.%s" % (mod, name) for mod, name in chains
                     if not hasattr(importlib.import_module("ybe_forge." + mod), name))
    assert missing == []


def test_moved_names_keep_their_identity():
    """perfbench wraps a traced function in every module namespace that
    binds the same object, and clears the caches it names: `cuspidal`
    binds `jmat.build_j` itself, and the basis cache that `elliptic` and
    `residuals` read is `lie.heisenberg`, the one perfbench clears; `heis`
    holds the closed form it caches and no cache of its own for the basis.
    `residuals`, the elliptic route of `verify`, reads the closed form of
    `heis` itself and holds the even thetas, which moved from `elliptic`.
    The rational table layer is `table`, whose Casimir cache `cuspidal`,
    `stolin` and `proofs`, the exact route of `verify`, share; the
    definitions that only `verify` reads live in the two route modules.
    The flip gauge and J's support colouring, which twists it, live in
    `proofs`, the module that proves with them, so no request compiles
    them; a gauge is its image dict, with no wrapper class in `lie`; and
    `exact` has one solver, with no polynomial ring beside it."""
    from ybe_forge import (cli, cuspidal, document, elliptic, exact, heis, jmat, lie, proofs,
                           residuals, stolin, table, verify)

    assert cuspidal.build_j is jmat.build_j and stolin.build_j is jmat.build_j
    assert elliptic.heisenberg is lie.heisenberg and residuals.heisenberg is lie.heisenberg
    assert not hasattr(heis, "heisenberg") and not hasattr(heis, "heisenberg_entries")
    assert residuals.z_row is heis.z_row and residuals.dual_exponent is heis.dual_exponent
    assert not any(hasattr(elliptic, name) for name in ("theta2", "theta3", "theta4"))
    assert proofs.casimir is table.casimir and proofs.tensor_table is cuspidal.tensor_table
    assert stolin.tensor_table is table.tensor_table
    assert not any(hasattr(lie, name) for name in (
        "sl_basis", "basis_terms", "dual_terms", "casimir", "TensorTable", "tensor_table",
        "flip_map", "cybe_residual_difference", "LinearMapGl"))
    assert not hasattr(cuspidal, "point_sol_space") and not hasattr(jmat, "flip_j")
    assert not hasattr(jmat, "j_support_coloring")
    gauge = ("flip_transpose_gauge", "j_support_coloring")
    assert not any(hasattr(cuspidal, name) for name in gauge)
    assert all(hasattr(proofs, name) for name in gauge)
    assert not any(hasattr(exact, name) for name in (
        "poly_add", "poly_scale", "poly_mul", "POLY_ZERO"))
    assert not any(hasattr(verify, name) for name in (
        "flip_j", "flip_map", "point_sol_space", "closed_form_d1", "yang_order", "theta2",
        "even_theta", "zoo_baxter", "heisenberg_coordinates", "belavin_tolerance"))
    assert cli.dumps is document.dumps


def test_benchmark_constructor_calls():
    """The calls perfbench/run.py makes with keywords and defaults still
    work: ThetaContext(tau=...) with 60 terms, a document with provenance
    equal to itself after the round trip.  A GlTensor2 without terms is
    empty, and the empty provenance of a TensorDocument is a fresh dict."""
    from ybe_forge.document import TensorDocument, document_from_tensor, dumps, loads
    from ybe_forge.elliptic import ThetaContext, belavin_cybe_residual, belavin_r
    from ybe_forge.lie import COMPLEX, GlTensor2

    ctx = ThetaContext(tau=1j)
    assert (ctx.tau, ctx.terms) == (1j, 60)
    assert belavin_cybe_residual(2, 1, ctx, (0.1, 0.25, 0.4)) < 1e-9
    doc = document_from_tensor(belavin_r(2, 1, ctx, 0.1, 0.3), {"source": "elliptic"})
    assert loads(dumps(doc)) == doc
    a = GlTensor2(2, COMPLEX)
    assert a.terms == {}
    c, d = TensorDocument(a), TensorDocument(a)
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
    "cuspidal:_ved_coords",
    "cuspidal:sol_family",
    "cybe:_layout",
    "heis:root_table",
    "heis:_root_values",
    "jmat:build_j",
    "lie:heisenberg",
    "table:casimir",
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


# Prints {module.function: cache hits} for every `lru_cache` of the package,
# each cleared, after one `run_suite("all", 4)`.
_CACHE_HITS = """import importlib, json, pkgutil
import ybe_forge
caches = {}
for info in pkgutil.iter_modules(ybe_forge.__path__):
    module = importlib.import_module("ybe_forge." + info.name)
    for name, fn in vars(module).items():
        if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
            fn.cache_clear()
            caches[info.name + "." + name] = fn
ybe_forge.verify.run_suite("all", 4)
print(json.dumps({name: fn.cache_info().hits for name, fn in sorted(caches.items())}))
"""


def test_every_cache_is_hit():
    """A cache that `verify` never hits only costs its keys: after one
    `run_suite("all", 4)` from empty caches, every package `lru_cache` has a
    hit but one.  `cuspidal.g_elements` misses on every call (no suite,
    warm-eval operation or cold request asks for one point twice), and stays
    only because perfbench's `test_traced_results_equal_untraced` asserts
    that it is there; the next change to the benchmark removes it."""
    hits = json.loads(_python(_CACHE_HITS))
    # the scan finds every cache decorator of the package
    assert len(hits) == sum(line.startswith(("@lru_cache", "@functools.lru_cache", "@cache"))
                            for path in PACKAGE.glob("*.py")
                            for line in path.read_text(encoding="utf-8").splitlines())
    assert [name for name, count in hits.items() if not count] == ["cuspidal.g_elements"]


# CPython's parser holds a module's tokens in an array that it doubles past
# this many; the doubling costs the compile peak of every process that
# imports the module.
PARSER_TOKENS_MAX = 8192


def oversized_modules(package: Path = PACKAGE) -> dict:
    """{module: tokens} for each module of `package` whose parser tokens,
    every token but COMMENT, NL and ENCODING, reach `PARSER_TOKENS_MAX`."""
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    out = {}
    for path in sorted(package.glob("*.py")):
        with path.open("rb") as fh:
            count = sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skip)
        if count >= PARSER_TOKENS_MAX:
            out[path.stem] = count
    return out


def test_modules_stay_under_the_parser_token_array():
    assert oversized_modules() == {}


def test_token_count_sees_a_large_module(tmp_path):
    """Negative control: 2048 lines of four tokens each, with the end
    marker, reach the limit; one line fewer does not, nor do comments and
    blank lines, which the parser never sees."""
    (tmp_path / "large.py").write_text("x = 1\n" * 2048)
    (tmp_path / "small.py").write_text("x = 1\n" * 2047 + "# note\n\n" * 5000)
    assert oversized_modules(tmp_path) == {"large": 8193}


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


_JMATRIX = ("jmatrix", "3", "1")
_RATIONAL = ("rational", "3", "1", "--x", "1/3", "--y", "2")
_STOLIN = ("stolin", "3", "1", "--k-matrix", "neg-j", "--x", "1/3", "--y", "2")
_ELLIPTIC = ("elliptic", "2", "1", "--tau", "1i", "--x", "0.1", "--y", "0.2")
# `tools/bench.py`, whose probe `COMPILED` counts compiled source lines and
# which records them for the `verify` suites below
_BENCH_SPEC = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
_BENCH = importlib.util.module_from_spec(_BENCH_SPEC)
_BENCH_SPEC.loader.exec_module(_BENCH)
_VERIFY, _VERIFY_ELLIPTIC, _VERIFY_ZOO = _BENCH.VERIFY_SUITES


@pytest.mark.parametrize("args, modules", [
    ((), ["cli", "document", "request"]),
    (_JMATRIX, ["cli", "cmd_jmatrix", "document", "jmat", "request"]),
    (_RATIONAL,
     ["cli", "cmd_rational", "cuspidal", "document", "exact", "jmat", "lie", "request", "table"]),
    (_RATIONAL + ("--format", "text"),
     ["cli", "cmd_rational", "cuspidal", "document", "exact", "formats", "jmat", "lie",
      "request", "table"]),
    (_STOLIN,
     ["cli", "cmd_stolin", "document", "exact", "jmat", "lie", "request", "stolin", "table"]),
    (_ELLIPTIC, ["cli", "cmd_elliptic", "document", "elliptic", "heis", "lie", "request"]),
    (_VERIFY, ["cli", "cmd_verify", "cuspidal", "cybe", "document", "exact", "jmat", "lie",
               "proofs", "request", "stolin", "table", "verify"]),
    (("jmatrix", "--help"), ["cli", "cmd_jmatrix", "document", "helppage", "request"]),
    (("--help",), ["cli", "cmd_elliptic", "cmd_jmatrix", "cmd_rational", "cmd_stolin",
                   "cmd_verify", "document", "helppage", "request"]),
], ids=["import", "jmatrix", "rational", "rational-text", "stolin", "elliptic", "verify",
        "command-help", "help"])
def test_command_loads_only_its_modules(args, modules):
    """A CLI process imports the modules its command uses and no others:
    where bytecode is not cached, it compiles each of them.  Each command's
    body is its own module, which imports the modules the body uses when it
    runs, so a help page loads the bodies for their docstrings alone; `cli`
    binds `document.dumps` (perfbench checks the binding), so every process
    loads `document` and none its reader, renderings (`formats`) or help
    pages (`helppage`) unless it asks for them; `verify --suite rational`
    loads the exact pipelines and their proofs, not `elliptic`, and leaves
    multiprocessing unloaded even with FORGE_THREADS=2, which it ignores."""
    loaded, pool, _ = json.loads(_python(_LOADED, *args, FORGE_THREADS="2"))
    assert loaded == modules
    assert not pool


def test_elliptic_request_loads_no_fractions():
    """An `elliptic` request computes in floats: it loads neither
    `fractions` nor `decimal`, which `fractions` imports."""
    code = _LOADED.replace("print(json.dumps([", "print(json.dumps([[m for m in ('fractions', "
                           "'decimal') if m in sys.modules], ", 1)
    assert json.loads(_python(code, *_ELLIPTIC))[0] == []


@pytest.mark.parametrize("args", [_VERIFY_ELLIPTIC, _VERIFY_ZOO], ids=lambda args: args[2])
def test_elliptic_suites_load_no_exact_pipeline(args):
    """The `elliptic` and `zoo` suites of `verify` import their route,
    `residuals`, and none of the exact pipelines or their proofs."""
    loaded = json.loads(_python(_LOADED, *args))[0]
    assert "residuals" in loaded
    assert [m for m in ("cuspidal", "exact", "jmat", "stolin", "proofs") if m in loaded] == []


# Most package source lines one request of each kind compiles where no
# bytecode is cached, `cli.py` included, keyed by the command and, for
# `verify`, its suite.  A `verify` suite compiles its own route.  The
# exact requests and the suites are held to the counts `tools/bench.py`
# measured (BENCH_47.json), so a change that grows one raises its figure on
# purpose; `jmatrix` and `elliptic` keep headroom.
COMPILE_BUDGETS = {"jmatrix": 600, "elliptic": 1300, "rational": 1603, "stolin": 1750,
                   "verify --suite rational": 2991, "verify --suite elliptic": 1893,
                   "verify --suite zoo": 1921}


@pytest.mark.parametrize("args", [_JMATRIX, _RATIONAL, _STOLIN, _ELLIPTIC, _VERIFY,
                                  _VERIFY_ELLIPTIC, _VERIFY_ZOO],
                         ids=["jmatrix", "rational", "stolin", "elliptic", "verify",
                              "verify-elliptic", "verify-zoo"])
def test_command_compiles_within_its_budget(args):
    """Under `python -m ybe_forge.cli` each request compiles `cli.py` once,
    as `__main__` (no module the request loads imports `ybe_forge.cli`),
    and at most its budget of package source lines, counted by the probe
    of `tools/bench.py`."""
    twice, lines = json.loads(_python(_BENCH.COMPILED, *args))
    assert not twice
    assert lines <= COMPILE_BUDGETS[" ".join(args[:3]) if args[0] == "verify" else args[0]]


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


@pytest.mark.parametrize("args", [_JMATRIX, _RATIONAL, _STOLIN, _ELLIPTIC, _VERIFY],
                         ids=lambda args: args[0])
def test_command_loads_no_heavy_standard_modules(args):
    """A request loads none of `_HEAVY`.  The probe runs under -S, so that
    the modules `site` loads itself (a `.pth` file may load typing and re)
    hide none of them."""
    heavy = json.loads(_python(_LOADED, *args, flags=("-S",)))[2]
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


def test_scan_sees_a_write_only_field(tmp_path):
    """Negative control: a field set in `__init__` and read nowhere is
    flagged; one read in src/, one read only in perfbench/ and one only
    augmented are not, and a read from tests/ does not count."""
    for tree_name in TREES + ("tests",):
        (tmp_path / tree_name).mkdir()
    pkg = tmp_path / "src" / "ybe_forge"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self, a):\n"
        "        self.read = a\n        self.bench = a\n        self.count = 0\n"
        "        self.tested = a\n        self.unread = a\n\n"
        "    def bump(self):\n        self.count += 1\n        return self.read\n"
    )
    (tmp_path / "perfbench" / "bench.py").write_text(
        "from ybe_forge.mod import Box\nprint(Box(1).bench)\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from ybe_forge.mod import Box\nassert Box(1).tested == 1\n")
    assert write_only_fields(tmp_path) == ["mod:Box.tested", "mod:Box.unread"]


def test_scan_skips_self_serving_and_borrowed_reads(tmp_path):
    """Negative control of the two reads that do not count: a field read
    only in a `__repr__`, `__eq__` (also on the other operand, also in
    another class) or `__hash__` is flagged, and so is one whose name only
    another class reads on its own `self`; that other class's field is read,
    and a field read on an instance from a function is not flagged."""
    for tree_name in TREES:
        (tmp_path / tree_name).mkdir()
    pkg = tmp_path / "src" / "ybe_forge"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self, a):\n"
        "        self.shown = a\n        self.compared = a\n        self.hashed = a\n"
        "        self.borrowed = a\n        self.used = a\n\n"
        "    def __repr__(self):\n        return repr(self.shown)\n\n"
        "    def __eq__(self, other):\n        return self.compared == other.compared\n\n"
        "    def __hash__(self):\n        return hash(self.hashed)\n\n\n"
        "class Other:\n"
        "    def __init__(self):\n        self.borrowed = 1\n\n"
        "    def get(self):\n        return self.borrowed\n\n"
        "    def __eq__(self, other):\n        return self.borrowed == other.shown\n\n\n"
        "def use(box):\n    return box.used\n"
    )
    assert write_only_fields(tmp_path) == [
        "mod:Box.shown", "mod:Box.compared", "mod:Box.hashed", "mod:Box.borrowed"]
