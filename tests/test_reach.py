"""Every function under src/arcjet is entered by a product run, or is
listed in ``UNREACHED`` with its reason.

A product run is what the command line does: the operations of
``perfbench/workloads.json`` (read, never written), ``derive`` with
``--reduce``, ``components``, ``oracle`` with each ``--check``, a graph
written with ``--out`` and ``verify --all`` expanded from a ``--config``
file.  They run in one fresh interpreter whose ``sys.setprofile`` hook is
set before ``arcjet`` is imported, so class creation counts too, and it
records the code object of every Python function entered.  Functions are
matched to their ``def`` by file and first line (a decorated function's
code starts at its first decorator).  Error paths are not functions of
their own, so they need no entry here.
"""

import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arcjet"

# reasons a function no product run enters may stay in src/
REASONS = {
    "tracer": "perfbench/tracer.py binds it by name (ROADMAP items 4 and 6)",
    "item 2": "waits to be wired into the driver's per-move certificate (ROADMAP item 2)",
    "test API": "part of a returned object's interface that only the tests read",
    "debug/pickle": "called by repr(), str() or pickle, not by a run",
}

UNREACHED = {
    "oracle.coverage_check": "tracer",
    "oracle.exclusive_cover_check": "tracer",
    "oracle.split_partition_check": "tracer",
    "oracle.stratum_membership": "tracer",
    "algebra.Polynomial.evaluate": "tracer",
    # read only by Polynomial.evaluate, and by transport_scalar's branch for
    # a hand-built target without i
    "algebra.Field.add": "tracer",
    "algebra.Field.zero": "tracer",
    "strata.generic_point": "item 2",
    "strata._substitute": "item 2",
    "strata.check_elimination_soundness": "item 2",
    "oracle.Fiber.__iter__": "test API",
    "algebra.Gaussian.__repr__": "debug/pickle",
    "algebra.Record.__repr__": "debug/pickle",
    "algebra.Polynomial.__repr__": "debug/pickle",
    "algebra.Polynomial.__str__": "debug/pickle",
    "algebra.Polynomial.__reduce__": "debug/pickle",
}


def product_runs(workdir: Path) -> list[list[str]]:
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    config = workdir / "all.cfg"
    config.write_text("all = true\n")
    return [op["argv"] for w in workloads.values() for op in w["ops"]] + [
        ["derive", "--kind", "D", "--n", "2", "--level", "4", "--reduce", "x0,y0,z0"],
        ["derive", "--equation", "z^2 + x*y", "--level", "3"],
        ["components", "--kind", "E6", "--n", "6", "--char", "3"],
        ["oracle", "--kind", "A", "--n", "2", "--char", "3", "--level", "2", "--check", "counts"],
        ["oracle", "--kind", "A", "--n", "2", "--char", "3", "--level", "2", "--check", "coverage"],
        ["oracle", "--kind", "A", "--n", "2", "--p", "2", "--level", "2", "--check", "partition"],
        ["graph", "--kind", "A", "--n", "2", "--max-level", "4", "--out", str(workdir / "g.dot")],
        ["verify", "--config", str(config)],
    ]


def record(workdir: str) -> None:
    """Run the product runs with a profile hook and print the (file, first
    line) of every function entered as JSON.  Called in a fresh process."""
    from contextlib import redirect_stderr, redirect_stdout

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from arcjet.cli import main

        for argv in product_runs(Path(workdir)):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code == 0, argv
    finally:
        sys.setprofile(None)
    places = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}
    print(json.dumps(sorted(places)))


def functions(trees: dict[str, ast.Module]) -> dict[tuple[str, int], str]:
    """(file, first line) -> ``module.qualname`` of every function and
    method in ``trees`` (keyed by file path), nested ones included."""
    found = {}

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = f"{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path, tree in trees.items():
        walk(tree, path, f"{Path(path).stem}.")
    return found


def unreached(trees: dict[str, ast.Module], entered: set[tuple[str, int]]) -> set[str]:
    return {name for place, name in functions(trees).items() if place not in entered}


def src_trees() -> dict[str, ast.Module]:
    return {str(p.resolve()): ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}


def entered_by_product_runs(tmp_path: Path) -> set[tuple[str, int]]:
    env = {k: v for k, v in os.environ.items() if k != "ARCJET_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    script = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'tests')!r}); "
        f"import test_reach; test_reach.record({str(tmp_path)!r})"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return {(path, line) for path, line in json.loads(out)}


def test_every_function_is_entered_by_a_product_run_or_listed(tmp_path):
    assert set(UNREACHED.values()) <= set(REASONS)
    missed = unreached(src_trees(), entered_by_product_runs(tmp_path))
    assert missed - set(UNREACHED) == set(), "entered by no product run and not listed"
    assert set(UNREACHED) - missed == set(), "listed, but a product run enters it"


def test_an_unreached_function_is_flagged():
    """Control: a function planted into a module and entered by nothing is
    reported; the same tree with its place entered is not."""
    trees = src_trees()
    path = str((SRC / "oracle.py").resolve())
    end = max(n.end_lineno for n in trees[path].body)
    planted = ast.parse("\n" * end + "def planted():\n    return 0\n").body[0]
    trees[path].body.append(planted)
    entered = set(functions(trees)) - {(path, end + 1)}
    assert unreached(trees, entered) == {"oracle.planted"}
    assert unreached(trees, entered | {(path, end + 1)}) == set()
