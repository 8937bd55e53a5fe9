"""Every name a module under src/arcjet imports is used in that module,
every parameter of its functions and methods is read, no default argument
is a mutable display, every ``__slots__`` field of a class is read by name
somewhere in src/arcjet, every function and method is loaded by name in
src/arcjet outside its own body, no module runs generated code, no
module-level function sits behind a process-wide cache, no module copies a
whole polynomial or stratum into a probe field, the oracle builds no
derivative tower, the tower names no stratum, no module imports
``dataclasses``, and importing the CLI loads neither the process-pool stack
nor ``dataclasses`` and ``inspect``.

A stdlib-``ast`` stand-in for a linter's unused-import and
unused-argument rules: imported names must appear as a name in the
module's code or inside a string annotation (``from __future__`` imports
are exempt); a parameter must be loaded somewhere in its function's body,
nested functions included (``self`` and ``cls`` are exempt).  No module
calls the builtins ``eval``, ``exec`` or ``compile``: the compiled oracle
is plain data (``re.compile``, an attribute call, is not the builtin).
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from test_tracer import traced_names

SRC = Path(__file__).resolve().parent.parent / "src" / "arcjet"


def imported_names(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        # string annotations such as -> "Polynomial" or list["Polynomial"]
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                inner = ast.parse(c.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in sorted(imported_names(tree).items(), key=lambda t: t[1])
        if name not in used
    ]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def unread_parameters(tree: ast.Module):
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        read = {
            n.id
            for stmt in fn.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for p in params:
            if p.arg not in ("self", "cls") and p.arg not in read:
                yield f"{fn.name}({p.arg}) (line {fn.lineno})"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = list(unread_parameters(tree))
    assert not unread, f"{path.name} has parameters nothing reads: {', '.join(unread)}"


MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_mutable_defaults(path):
    # a default is built once and shared by every call: a list, dict or set
    # display there is one object every caller may mutate
    tree = ast.parse(path.read_text(), filename=str(path))
    shared = [
        f"{fn.name} (line {fn.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for d in fn.args.defaults + [d for d in fn.args.kw_defaults if d]
        if isinstance(d, MUTABLE_DISPLAYS)
    ]
    assert not shared, f"{path.name} has mutable default arguments: {', '.join(shared)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_eval_exec_compile(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [
        f"{node.func.id} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("eval", "exec", "compile")
    ]
    assert not calls, f"{path.name} runs generated code: {', '.join(calls)}"


def slot_fields(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, field) for every name in a class's ``__slots__`` (``__dict__``
    aside: it makes room for cached properties, it is no field)."""
    fields = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            ):
                slots = ast.literal_eval(stmt.value)
                for name in (slots,) if isinstance(slots, str) else slots:
                    if name != "__dict__":
                        fields.append((cls.name, name))
    return fields


def attributes_read(tree: ast.Module) -> set[str]:
    # ``x.f += 1`` parses as a store of ``x.f``: a field that is only ever
    # updated in place is still never read
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_slots(tree: ast.Module, reads: set[str]) -> list[str]:
    return [f"{cls}.{name}" for cls, name in slot_fields(tree) if name not in reads]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_slot_is_read_somewhere(path):
    # a field no module reads stores nothing anyone uses: a decision is
    # stored once, where it is read (``Record`` compares fields through
    # ``__slots__`` generically, which is no read by name)
    reads = set().union(
        *(attributes_read(ast.parse(p.read_text(), filename=str(p))) for p in SRC.glob("*.py"))
    )
    unread = unread_slots(ast.parse(path.read_text(), filename=str(path)), reads)
    assert not unread, f"{path.name} has write-only fields: {', '.join(unread)}"


def test_a_write_only_slot_is_flagged():
    """Control: a field that is set, even updated in place, and never read."""
    tree = ast.parse(
        "class Node:\n"
        "    __slots__ = ('kind', 'note')\n"
        "    def __init__(self, kind):\n"
        "        self.kind = kind\n"
        "        self.note = ''\n"
        "def mark(node):\n"
        "    node.note += ' (seen)'\n"
        "    return node.kind\n"
    )
    assert unread_slots(tree, attributes_read(tree)) == ["Node.note"]


def definitions(tree: ast.Module):
    """(qualified name, node) of every module-level function and of every
    method of a module-level class; special methods (``__len__``) are the
    interpreter's to call, so they are left out."""
    for node in tree.body:
        cls = isinstance(node, ast.ClassDef)
        for fn in node.body if cls else [node]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                fn.name.startswith("__") and fn.name.endswith("__")
            ):
                yield f"{node.name}.{fn.name}" if cls else fn.name, fn


def names_loaded(node: ast.AST) -> Counter:
    """How often each name is loaded in ``node``, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def uncalled(trees: dict[str, ast.Module], exempt: set[tuple[str, str]]) -> list[str]:
    """``module.qualname`` of each definition (``definitions``) whose name is
    loaded nowhere in ``trees`` outside its own body, ``exempt`` aside."""
    loaded = sum((names_loaded(t) for t in trees.values()), Counter())
    return [
        f"{module}.{qual}"
        for module, tree in trees.items()
        for qual, fn in definitions(tree)
        if (module, qual) not in exempt and loaded[fn.name] == names_loaded(fn)[fn.name]
    ]


def test_every_function_is_called_from_src():
    # a function only the tests call is a reference route, and every line of
    # it is compiled on each start-up: it belongs in tests/reference_*.py.
    # Exempt: the names the benchmark's tracer binds from outside (among
    # them ``cli.main``, the console-script entry point), read off its
    # SPANS and COUNTERS, and ``strata.check_elimination_soundness``, which
    # waits to be wired into the driver (its helpers are called from it)
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    exempt = {*traced_names(), ("strata", "check_elimination_soundness")}
    assert ("cli", "main") in exempt
    found = uncalled(trees, exempt)
    assert not found, f"functions nothing under src/ calls: {', '.join(found)}"


def test_an_uncalled_function_is_flagged():
    """Control: a function called only by itself, and a method read only in
    its own body, are flagged; a function another one calls, a special
    method and an exempt name are not."""
    trees = {
        "m": ast.parse(
            "def used():\n"
            "    return 1\n"
            "def planted(n):\n"
            "    return planted(n - 1) if n else used()\n"
            "class C:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def method(self):\n"
            "        return self.method\n"
        ),
        "n": ast.parse("def kept():\n    return C\n"),
    }
    assert uncalled(trees, {("n", "kept")}) == ["m.planted", "m.C.method"]


def calls_to(node: ast.AST, attr: str):
    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == attr
    ]


def function_body(tree: ast.Module, name: str) -> set[int]:
    """The ids of the nodes of the module-level function ``name``."""
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return {id(n) for n in ast.walk(fn)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_reductions_of_the_tower_go_through_the_memo(path):
    # ``strata.reduced(sys, s, m)`` is the one place a derivative is
    # simplified modulo a stratum, so every caller shares its memo
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = function_body(tree, "reduced") if path.name == "strata.py" else set()
    direct = [
        f"line {call.lineno}"
        for call in calls_to(tree, "simplify")
        if id(call) not in exempt and any(calls_to(arg, "derivative") for arg in call.args)
    ]
    assert not direct, f"{path.name} simplifies a derivative directly: {', '.join(direct)}"


# what the derivative tower must not name: the strata keep its reduction memos
STRATUM_NAMES = re.compile(r"\b(Stratum|simplify|reduction_of)\b")


def stratum_names(text: str) -> list[int]:
    """Lines of ``text`` that name a stratum, its ``simplify`` or
    ``reduction_of``, in code, annotations, comments or docstrings."""
    return [n for n, line in enumerate(text.splitlines(), 1) if STRATUM_NAMES.search(line)]


def test_the_tower_names_no_stratum():
    # ``hasse`` computes derivatives; which stratum a level is reduced
    # modulo, and the key its memo is filed under, are written in ``strata``
    path = SRC / "hasse.py"
    found = stratum_names(path.read_text())
    assert not found, f"hasse.py names a stratum: {', '.join(f'line {n}' for n in found)}"


def test_the_stratum_name_guard_sees_every_spelling():
    # control: an import, an annotation, a call and a comment are caught;
    # the words strata, Reduction and simplified are not
    spellings = [
        "if TYPE_CHECKING:\n    from .strata import Reduction, Stratum\n",
        "def reduced(self, s: 'Stratum', m):\n    return m\n",
        "def f(self, s, p):\n    return s.simplify(self, p)\n",
        "# (zero_vars, equations) -> reduction (``strata.reduction_of``)\n",
    ]
    assert all(stratum_names(text) for text in spellings)
    allowed = "# reductions modulo strata (a Reduction each), simplified once\n"
    assert not stratum_names(allowed)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "oracle.py"],
    ids=lambda p: p.name,
)
def test_membership_tests_go_through_point_hits(path):
    # ``oracle.point_hits`` is the one membership kernel, so every
    # caller shares its projection memo: no other module calls ``contains``
    tree = ast.parse(path.read_text(), filename=str(path))
    direct = [f"line {call.lineno}" for call in calls_to(tree, "contains")]
    assert not direct, f"{path.name} tests membership directly: {', '.join(direct)}"


def called_name(node: ast.Call):
    """The name a call goes to, bare or as an attribute."""
    f = node.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def is_enumeration(node: ast.AST) -> bool:
    """Is ``node`` a call of ``enumerate_fiber``, bare or as an attribute?"""
    return isinstance(node, ast.Call) and called_name(node) == "enumerate_fiber"


def fiber_expansions(tree: ast.Module):
    """``list(`` or ``sorted(`` of an ``enumerate_fiber(...)`` result, or a
    ``for`` (loop or comprehension) over one: the call itself, or a name
    bound to it in the same function."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {
            t.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Assign) and is_enumeration(n.value)
            for t in n.targets
            if isinstance(t, ast.Name)
        }

        def fiber(node: ast.AST) -> bool:
            return is_enumeration(node) or (isinstance(node, ast.Name) and node.id in bound)

        for n in ast.walk(fn):
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id in ("list", "sorted")
                and any(fiber(a) for a in n.args)
            ):
                yield n.lineno
            elif isinstance(n, (ast.For, ast.AsyncFor, ast.comprehension)) and fiber(n.iter):
                yield n.iter.lineno


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "oracle.py"],
    ids=lambda p: p.name,
)
def test_fibers_are_read_in_blocks(path):
    # ``oracle.enumerate_fiber`` returns a fiber as prefix blocks that share
    # the free last jet order; ``point_hits`` and ``len`` read it without
    # building its points one by one, and no other module expands it
    tree = ast.parse(path.read_text(), filename=str(path))
    expanded = sorted({f"line {n}" for n in fiber_expansions(tree)})
    assert not expanded, f"{path.name} expands a fiber into points: {', '.join(expanded)}"


def test_the_fiber_guard_sees_every_spelling():
    # control: each expansion is caught; a length and the kernel are not
    spellings = [
        "def f(sys):\n    return list(enumerate_fiber(sys, 2, 3))\n",
        "def f(sys):\n    return sorted(oracle.enumerate_fiber(sys, 2, 3))\n",
        "def f(sys):\n    for pt in enumerate_fiber(sys, 2, 3):\n        print(pt)\n",
        "def f(sys):\n    pts = enumerate_fiber(sys, 2, 3)\n    return list(pts)\n",
        "def f(sys):\n    pts = enumerate_fiber(sys, 2, 3)\n    return sorted(pts)\n",
        "def f(sys):\n    pts = enumerate_fiber(sys, 2, 3)\n    for pt in pts:\n        print(pt)\n",
        "def f(sys):\n    pts = enumerate_fiber(sys, 2, 3)\n    return {pt[0] for pt in pts}\n",
    ]
    assert all(list(fiber_expansions(ast.parse(text))) for text in spellings)
    allowed = ast.parse(
        "def f(sys, c):\n"
        "    pts = enumerate_fiber(sys, 2, 3)\n"
        "    masks = {h for _, _, h in point_hits(enumerate_fiber(sys, 2, 3), c)}\n"
        "    return len(pts), masks\n"
    )
    assert not list(fiber_expansions(allowed))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_reductions_are_built_only_by_reduction_of(path):
    # ``strata.reduction_of`` is the one place a ``Reduction`` is built, so
    # every stratum shares its cache: no other code calls ``Reduction(``
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = function_body(tree, "reduction_of") if path.name == "strata.py" else set()
    direct = [
        f"line {n.lineno}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and id(n) not in exempt
        and (n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None))
        == "Reduction"
    ]
    assert not direct, f"{path.name} builds a Reduction directly: {', '.join(direct)}"


PROCESS_WIDE_CACHES = ("lru_cache", "cache")


def process_wide_caches(tree: ast.Module):
    """Module-level functions decorated with ``functools.lru_cache`` or
    ``functools.cache``, bare or called, imported or as ``functools.``
    attributes."""
    for fn in tree.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
            if name in PROCESS_WIDE_CACHES:
                yield fn.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_wide_caches(path):
    # every memo lives on the derivative tower it was computed from and is
    # freed with it; a cache on a module-level function outlives its towers
    # and fills up across operations
    tree = ast.parse(path.read_text(), filename=str(path))
    cached = sorted({f"line {n}" for n in process_wide_caches(tree)})
    assert not cached, f"{path.name} caches a function process-wide: {', '.join(cached)}"


def test_the_process_wide_cache_guard_sees_every_spelling():
    # control: each decorator is caught; a cache local to one call is not
    spellings = [
        "import functools\n@functools.lru_cache(maxsize=256)\ndef f(x):\n    return x\n",
        "from functools import lru_cache\n@lru_cache\ndef f(x):\n    return x\n",
        "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x):\n    return x\n",
        "import functools\n@functools.cache\ndef f(x):\n    return x\n",
        "from functools import cache\n@cache\ndef f(x):\n    return x\n",
    ]
    assert all(list(process_wide_caches(ast.parse(text))) for text in spellings)
    local = ast.parse(
        "import functools\n"
        "def build(polys):\n"
        "    fmt = functools.cache(str)\n"
        "    return [fmt(p) for p in polys]\n"
    )
    assert not list(process_wide_caches(local))


def reductions_of_derivatives(tree: ast.Module):
    """``.reduce_mod_vars(`` called on a ``derivative(...)`` call, or on a
    name bound to one in the same function."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {
            t.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Assign) and calls_to(n.value, "derivative")
            for t in n.targets
            if isinstance(t, ast.Name)
        }
        for call in calls_to(fn, "reduce_mod_vars"):
            on = call.func.value
            if calls_to(on, "derivative") or (isinstance(on, ast.Name) and on.id in bound):
                yield call.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_derivatives_are_reduced_on_the_shifted_route(path):
    # ``JetSystem.derivative(m, zero_vars)`` reads f_m modulo the zero set
    # off shallow levels of the tower; reducing a full level afterwards
    # would build the deep levels that route avoids
    tree = ast.parse(path.read_text(), filename=str(path))
    direct = sorted({f"line {n}" for n in reductions_of_derivatives(tree)})
    assert not direct, f"{path.name} reduces a full derivative level: {', '.join(direct)}"


def test_the_shifted_route_guard_sees_both_spellings():
    # control: the chained call and the old ``derive --reduce`` loop
    chained = ast.parse("def f(sys, zs):\n    return sys.derivative(3).reduce_mod_vars(zs)\n")
    stepwise = ast.parse(
        "def f(sys, zs):\n    d = sys.derivative(3)\n    if zs:\n        d = d.reduce_mod_vars(zs)\n    return d\n"
    )
    shifted = ast.parse("def f(sys, zs):\n    return sys.derivative(3, zs)\n")
    assert list(reductions_of_derivatives(chained)) and list(reductions_of_derivatives(stepwise))
    assert not list(reductions_of_derivatives(shifted))


GENERIC_RENDERERS = ("asdict", "is_dataclass")


def generic_renderings(tree: ast.Module):
    """Calls of ``asdict`` or ``is_dataclass``, bare or as ``dataclasses.``
    attributes, and imports of either name from ``dataclasses``."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
            if name in GENERIC_RENDERERS:
                yield n.lineno
        elif isinstance(n, ast.ImportFrom) and n.module == "dataclasses":
            if any(alias.name in GENERIC_RENDERERS for alias in n.names):
                yield n.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_reports_are_rendered_by_describe(path):
    # an engine object names its own coordinates and polynomials in its
    # ``describe()``; a generic dataclass walk has to guess which tuples
    # are coordinates
    tree = ast.parse(path.read_text(), filename=str(path))
    generic = sorted({f"line {n}" for n in generic_renderings(tree)})
    assert not generic, f"{path.name} renders a dataclass generically: {', '.join(generic)}"


def test_the_describe_guard_sees_every_spelling():
    # control: the old report walk, a bare imported call, and the allowed route
    walk = ast.parse(
        "import dataclasses\n"
        "def f(obj):\n"
        "    if dataclasses.is_dataclass(obj):\n"
        "        return dataclasses.asdict(obj)\n"
    )
    bare = ast.parse("from dataclasses import asdict\ndef f(obj):\n    return asdict(obj)\n")
    described = ast.parse("def f(obj):\n    return obj.describe()\n")
    assert len(set(generic_renderings(walk))) == 2 and len(list(generic_renderings(bare))) == 2
    assert not list(generic_renderings(described))


WHOLE_OBJECT_TRANSPORTS = ("transport_poly", "transport_stratum")


def whole_object_transports(tree: ast.Module):
    """Definitions and calls of ``transport_poly`` or ``transport_stratum``,
    bare or as attributes."""
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in WHOLE_OBJECT_TRANSPORTS:
            yield n.lineno
        elif isinstance(n, ast.Call) and called_name(n) in WHOLE_OBJECT_TRANSPORTS:
            yield n.lineno


def tower_builds(tree: ast.Module):
    """Calls of ``JetSystem``, bare or as an attribute."""
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and called_name(n) == "JetSystem"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_coefficients_move_into_the_probe_field_as_they_compile(path):
    # ``oracle.compile_poly`` is the one place a coefficient moves from the
    # source field into the probe field; a polynomial or a stratum is not
    # copied there first (the tests keep that route as their reference)
    tree = ast.parse(path.read_text(), filename=str(path))
    moved = sorted({f"line {n}" for n in whole_object_transports(tree)})
    assert not moved, f"{path.name} moves a whole object into the probe field: {', '.join(moved)}"


def test_the_oracle_builds_no_tower():
    # the oracle compiles the levels of the tower it is handed: one
    # derivative tower per preset and operation, whatever the probe field
    path = SRC / "oracle.py"
    built = tower_builds(ast.parse(path.read_text(), filename=str(path)))
    assert not built, f"oracle.py builds a derivative tower: {', '.join(f'line {n}' for n in built)}"


def test_the_probe_field_guards_see_every_spelling():
    # control: a definition and each call are caught; compiling, moving one
    # scalar and naming the tower's type in an annotation are not
    transports = [
        "def transport_poly(p, target):\n    return p\n",
        "def f(p, target):\n    return transport_poly(p, target)\n",
        "def f(T, target):\n    return oracle.transport_stratum(T, target)\n",
        "class C:\n    def transport_stratum(self, T):\n        return T\n",
    ]
    assert all(list(whole_object_transports(ast.parse(text))) for text in transports)
    towers = [
        "def f(g):\n    return JetSystem(g)\n",
        "def f(g):\n    return hasse.JetSystem(transport(g))\n",
    ]
    assert all(tower_builds(ast.parse(text)) for text in towers)
    allowed = ast.parse(
        "def f(sys: JetSystem, p: int, target):\n"
        "    return compile_poly(sys.f, 0, p), transport_scalar(1, target)\n"
    )
    assert not list(whole_object_transports(allowed)) and not tower_builds(allowed)


# what ``concurrent.futures.ProcessPoolExecutor`` pulls in; only
# ``ARCJET_WORKERS>1 arcjet verify --all`` needs it
POOL_PACKAGES = ("concurrent", "multiprocessing", "logging")
POOL_MODULES = ("socket", "subprocess", "pickle", "selectors", "signal", "queue")


def modules_loaded_by(statement: str) -> list[str]:
    """The modules a fresh interpreter adds to ``sys.modules`` when it runs
    ``statement`` with ``src`` on its path."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def pool_stack(modules: list[str]) -> list[str]:
    return [
        name
        for name in modules
        if name in POOL_MODULES
        or any(name == pkg or name.startswith(pkg + ".") for pkg in POOL_PACKAGES)
    ]


def test_importing_the_cli_does_not_load_the_process_pool():
    # every CLI run is a fresh process and pays for what the import loads;
    # ``cmd_verify`` imports the pool only when it fans out
    loaded = pool_stack(modules_loaded_by("import arcjet.cli"))
    assert not loaded, f"import arcjet.cli loads the process-pool stack: {', '.join(loaded)}"


def test_the_pool_stack_probe_sees_the_pool():
    # control: the pool's own import reports every family the guard names
    loaded = pool_stack(modules_loaded_by("import concurrent.futures.process"))
    roots = {name.split(".")[0] for name in loaded}
    assert roots == set(POOL_PACKAGES) | set(POOL_MODULES)


# what the records of ``src`` would cost every start-up as dataclasses:
# ``dataclasses`` imports ``inspect`` (with ``ast``, ``dis`` and
# ``tokenize``), which nothing else the CLI loads needs
DATACLASS_STACK = {"dataclasses", "inspect"}


def test_importing_the_cli_does_not_load_dataclasses():
    loaded = DATACLASS_STACK & set(modules_loaded_by("import arcjet.cli"))
    assert not loaded, f"import arcjet.cli loads {', '.join(sorted(loaded))}"


def test_the_dataclass_probe_sees_dataclasses():
    # control: neither module is loaded before the probe's statement runs
    assert DATACLASS_STACK <= set(modules_loaded_by("import dataclasses"))


def dataclass_imports(tree: ast.Module):
    """Lines that import ``dataclasses``, or a name from it."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            if any(alias.name.split(".")[0] == "dataclasses" for alias in n.names):
                yield n.lineno
        elif isinstance(n, ast.ImportFrom) and n.module == "dataclasses":
            yield n.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # the records are plain slotted classes on ``algebra.Record``; an import
    # inside a function would still load ``inspect`` on the first call
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted({f"line {n}" for n in dataclass_imports(tree)})
    assert not found, f"{path.name} imports dataclasses: {', '.join(found)}"


def test_the_dataclass_import_guard_sees_every_spelling():
    # control: each spelling is caught, at module level or inside a
    # function; a name that merely mentions dataclasses is not
    spellings = [
        "import dataclasses\n",
        "import dataclasses as dc\n",
        "import json, dataclasses\n",
        "from dataclasses import dataclass\n",
        "from dataclasses import dataclass, field as dc_field, replace\n",
        "def f():\n    from dataclasses import replace\n    return replace\n",
        "def f():\n    import dataclasses\n    return dataclasses.fields\n",
    ]
    assert all(list(dataclass_imports(ast.parse(text))) for text in spellings)
    allowed = ast.parse("import dataclasses_json\nfrom .records import dataclass_like\n")
    assert not list(dataclass_imports(allowed))
