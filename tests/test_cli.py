"""Command-line entry point: subcommands, exit codes, config expansion."""

import concurrent.futures
import hashlib
import json
import os
import shutil
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arcjet import cli, oracle
from arcjet.algebra import MAX_EXPONENT, MAX_TERMS
from arcjet.catalog import preset
from arcjet.cli import _oracle_plan, _oracle_section, main
from arcjet.hasse import JetSystem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_derive_preset(capsys):
    code, out = run(capsys, "derive", "--kind", "A", "--n", "1", "--level", "3")
    assert code == 0
    assert "f_2 = " in out and "z1^2" in out.replace(" ", "").replace("z1^2", "z1^2")


def test_derive_raw_equation_with_reduction(capsys):
    code, out = run(
        capsys,
        "derive",
        "--equation",
        "z^2 + x*y",
        "--level",
        "2",
        "--reduce",
        "x0,y0,z0",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("f_")]
    assert lines[0] == "f_0 = 0"
    assert lines[2].replace(" ", "") in ("f_2=x1*y1+z1^2", "f_2=z1^2+x1*y1")


def test_components_json(capsys, tmp_path):
    out_file = tmp_path / "components.json"
    code, _ = run(
        capsys, "components", "--kind", "A", "--n", "2", "--out", str(out_file)
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["components"]) == 2


def test_graph_dot_and_json(capsys):
    code, dot = run(capsys, "graph", "--kind", "A", "--n", "1", "--max-level", "6")
    assert code == 0
    assert dot.lstrip().startswith("digraph")
    code, js = run(
        capsys, "graph", "--kind", "A", "--n", "1", "--max-level", "6",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(js)["schema"].startswith("jet-component-graph/")


def test_oracle_counts(capsys):
    code, out = run(
        capsys, "oracle", "--kind", "A", "--n", "1", "--char", "2",
        "--level", "2", "--check", "counts",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 32 and payload["ok"] is True


def test_oracle_budget_caps_the_triples_tested(capsys):
    """The budget counts the candidate triples the search tests (415,233
    here), not the 3^18 box: the default budget counts this fiber, and a
    budget one short of the work raises."""
    argv = ["oracle", "--kind", "A", "--n", "2", "--char", "3", "--level", "6", "--check", "counts"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["points"] == 3_365_793
    code, out = run(capsys, *argv, "--budget", "415232")
    assert code == 1 and "budget" in json.loads(out)["error"]


def test_a_budget_below_the_zero_path_builds_no_level(monkeypatch, capsys):
    """Every search descends the all-zero prefix to order m - 1, testing
    (m - 1) * p^3 triples: 994 * 8 = 7,952 here.  A budget one short of
    that is the over-budget error before any derivative level is built."""
    levels = []
    derivative = JetSystem.derivative

    def counting(self, m, zero_vars=frozenset()):
        levels.append(m)
        return derivative(self, m, zero_vars)

    monkeypatch.setattr(JetSystem, "derivative", counting)
    code, out = run(
        capsys, "oracle", "--kind", "A", "--n", "1", "--char", "2",
        "--level", "995", "--budget", "7951", "--check", "counts",
    )
    assert code == 1
    assert out == (
        '{"error": "fiber search over budget (7951 triples); reduce m or p", "ok": false}\n'
    )
    assert levels == []


@pytest.mark.parametrize("budget,points", [(1000, None), (1330, None), (1331, 1331)])
def test_a_level_1_fiber_counts_its_cube_against_the_budget(monkeypatch, capsys, budget, points):
    """At level 1 the fiber is one block whose tails are the whole p^3 cube
    (every level-1 jet over the origin lies on the A1 cone): 11^3 = 1,331
    triples at p = 11.  A smaller budget is the over-budget error before the
    cube or any derivative level is built."""
    levels = []
    derivative = JetSystem.derivative

    def counting(self, m, zero_vars=frozenset()):
        levels.append(m)
        return derivative(self, m, zero_vars)

    monkeypatch.setattr(JetSystem, "derivative", counting)
    code, out = run(
        capsys, "oracle", "--kind", "A", "--n", "1", "--char", "0", "--p", "11",
        "--level", "1", "--check", "counts", "--budget", str(budget),
    )
    if points is None:
        assert code == 1
        assert out == (
            f'{{"error": "fiber search over budget ({budget} triples); reduce m or p", "ok": false}}\n'
        )
        assert levels == []
    else:
        assert code == 0
        assert json.loads(out)["points"] == points and levels == [1]


def counted_towers(monkeypatch) -> list:
    """A list that gains one entry per ``JetSystem`` built from now on."""
    built = []
    init = JetSystem.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(JetSystem, "__init__", counting)
    return built


@pytest.mark.parametrize("kind,n", [("A", 3), ("D", 2), ("E6", 6)])
def test_a_char0_oracle_section_builds_no_tower_of_its_own(monkeypatch, kind, n):
    """The oracle compiles the preset's own tower into each probe field: a
    characteristic-0 section builds no second tower over F_p."""
    pr = preset(kind, n=n, char=0)
    _ = pr.system  # the preset's own tower, built before the count starts
    built = counted_towers(monkeypatch)
    for p, m in _oracle_plan(pr):
        assert _oracle_section(pr, p, m, 200_000)["ok"]
    assert built == []


@pytest.mark.parametrize(
    "argv,towers",
    [
        (["verify", "--all"], 69),
        (["graph", "--kind", "A", "--n", "6", "--char", "0", "--max-level", "12"], 1),
    ],
    ids=["verify-all", "graph-A6-char0"],
)
def test_one_tower_per_preset(monkeypatch, tmp_path, capsys, argv, towers):
    """An operation builds one derivative tower per preset it reads and no
    more: ``verify --all`` one for each of the 69 presets, a level graph
    (whose same-level probes enumerate characteristic-0 fibers over F_2 and
    F_3) one."""
    built = counted_towers(monkeypatch)
    code, _ = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 0
    assert len(built) == towers


def test_oracle_coverage(capsys):
    code, out = run(
        capsys, "oracle", "--kind", "D", "--n", "2", "--char", "3", "--level", "2",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_single_preset(capsys):
    code, out = run(capsys, "verify", "--kind", "A", "--n", "2", "--char", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["preset"] == "A2(char 3)"
    assert payload["components"]["ok"] is True
    assert payload["congruences"]["ok"] is True
    assert payload["noninclusion"]["ok"] is True
    assert all(c["ok"] for c in payload["coverage"])


def test_verify_single_preset_deterministic(capsys):
    _, a = run(capsys, "verify", "--kind", "A", "--n", "1", "--char", "2")
    _, b = run(capsys, "verify", "--kind", "A", "--n", "1", "--char", "2")
    assert a == b


# sha256 of stdout, one invocation per subcommand report shape that the
# verify --all and graph-export pins do not cover
CLI_OUTPUT_SHA256 = [
    ("components --kind E8 --char 0", "c207be274083ffe3a48f6a6b1847f19e5529a06a9c10b152c8a507eb7734c526"),
    ("components --kind E6 --char 0", "943ea8d44f09d012902a3d2716866e24845baa8ff4e4790d3a72c6de61fbfe43"),
    (
        "components --kind D --n 4 --char 2 --variant x*y^2*z",
        "34e73919406f7f52cc4b9ac20bdd9fd2e9ff53c1bcbea150ce31a2c0244bedc4",
    ),
    (
        "oracle --kind D --n 2 --char 3 --level 3 --check coverage",
        "3ec3147fc3e4a9e5e45ff5e3cd7a05f08522630a8ff76274a85763a9f7a52f1f",
    ),
    (
        "oracle --kind D --n 2 --char 3 --level 3 --check partition",
        "3ec3147fc3e4a9e5e45ff5e3cd7a05f08522630a8ff76274a85763a9f7a52f1f",
    ),
    (
        "oracle --kind E6 --char 7 --level 2 --check counts",
        "c4c659157731b82a7dd32f6c1794c64c11c9b41b2bc6a4ed834ec211da6ac55d",
    ),
    (
        "verify --kind A --n 3 --char 0 --graph-level 8",
        "a3be06f033641a24871d5a71e8b029ccd96126a1eb8ebc6a3cd7644d43d5d4dc",
    ),
]


@pytest.mark.parametrize("argv,digest", CLI_OUTPUT_SHA256, ids=[a for a, _ in CLI_OUTPUT_SHA256])
def test_cli_output_is_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_verify_report_holds_only_json_values():
    # a tuple would be a coordinate (family, order) that no describe() named:
    # json.dumps would print it as ["x", 3] without complaint
    def walk(obj):
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, list):
            for value in obj:
                walk(value)
        else:
            assert isinstance(obj, (str, int, float, bool, type(None))), repr(obj)

    report = cli._verify_one(preset("E8", char=0))
    assert report["ok"] and report["noninclusion"]["certificates"]
    walk(report)


def test_bad_preset_is_a_clean_failure(capsys):
    code, out = run(capsys, "verify", "--kind", "E6", "--char", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and "error" in payload


def test_missing_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["components"])  # --kind is required


def test_config_file_expansion(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = A\nn = 2\nchar = 3\n# comment\n")
    code, out = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_config_explicit_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = A\nn = 1\nchar = 0\n")
    code, out = run(capsys, "verify", "--config", str(cfg), "--n", "3")
    assert code == 0
    assert json.loads(out)["preset"] == "A3(char 0)"


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--equation", "z^2 + x*"],
        ["derive", "--equation", "z^2 + x*y", "--reduce", "q0"],
        ["derive", "--equation", "z^2 + x*y", "--reduce", "t1"],
        ["derive", "--equation", "z^2 + x*y", "--char", "4"],
        ["derive", "--equation", "z^2 + x*y + t"],
        ["oracle", "--kind", "A", "--n", "1", "--p", "4"],
        ["oracle", "--kind", "A", "--n", "1", "--p", "1"],
        ["oracle", "--kind", "A", "--n", "1", "--p", "-3", "--check", "counts"],
        ["derive", "--equation", "1/0"],
        ["derive", "--equation", "z^2 + 1/3", "--char", "3"],
        # one above the bound: cheap to expand, should the bound ever go
        ["derive", "--equation", f"z^{MAX_EXPONENT + 1}"],
        ["derive", "--kind", "A", "--n", "1000"],
        # one factor past the term bound: 2 * MAX_TERMS terms if expanded
        [
            "derive",
            "--equation",
            "*".join(f"(x{i}+y{i})" for i in range(1, MAX_TERMS.bit_length() + 1)),
        ],
        # far past the nesting bound, and past the recursion limit unbounded
        ["derive", "--equation", "(" * 400 + "x" + ")" * 400],
    ],
    ids=[
        "parse-error",
        "bad-coordinate",
        "arc-parameter-coordinate",
        "non-prime-char",
        "arc-parameter-in-equation",
        "oracle-composite-p",
        "oracle-p-one",
        "oracle-negative-p",
        "zero-denominator",
        "denominator-vanishes-mod-p",
        "exponent-above-bound",
        "preset-exponent-above-bound",
        "term-count-above-bound",
        "parentheses-nest-too-deep",
    ],
)
def test_malformed_input_is_a_json_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and payload["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--config", "{missing}"],
        ["verify", "--config", "{binary}"],
        ["derive"],
        ["oracle", "--kind", "A", "--n", "1"],
        ["derive", "--equation", "z^2 + x*y", "--level", "-1"],
        ["oracle", "--kind", "A", "--n", "1", "--char", "2", "--level", "-1"],
        ["graph", "--kind", "A", "--n", "1", "--max-level", "0"],
        ["verify", "--kind", "A", "--n", "1", "--graph-level", "-1"],
        ["ARCJET_WORKERS=abc", "verify", "--all"],
        ["ARCJET_WORKERS=\u00b2", "verify", "--all"],
        ["verify", "--all", "--graph-level", "3"],
        ["oracle", "--kind", "A", "--n", "1", "--char", "2", "--budget", "0"],
        ["oracle", "--kind", "A", "--n", "1", "--char", "2", "--budget", "-5"],
    ],
    ids=[
        "missing-config",
        "config-not-text",
        "derive-without-input",
        "oracle-char0-without-p",
        "derive-negative-level",
        "oracle-negative-level",
        "graph-zero-max-level",
        "verify-negative-graph-level",
        "verify-all-bad-workers",
        "verify-all-superscript-workers",
        "verify-all-with-graph-level",
        "oracle-zero-budget",
        "oracle-negative-budget",
    ],
)
def test_usage_errors_exit_2(capsys, tmp_path, monkeypatch, argv):
    """A leading ``NAME=value`` item sets an environment variable.  The
    error comes before any preset of ``verify --all`` runs."""
    monkeypatch.setattr(cli, "_verify_label", lambda key: pytest.fail(f"{key} ran"))
    argv = list(argv)
    while "=" in argv[0]:
        name, _, value = argv.pop(0).partition("=")
        monkeypatch.setenv(name, value)
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe")
    argv = [a.format(missing=tmp_path / "missing.cfg", binary=binary) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "--kind", "A", "--n", "1"],
        ["components", "--kind", "A", "--n", "1"],
        ["graph", "--kind", "A", "--n", "1", "--max-level", "2"],
        ["oracle", "--kind", "A", "--n", "1", "--char", "2", "--level", "1"],
        ["verify", "--kind", "A", "--n", "1", "--char", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_a_json_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "report.json"
    code, out = run(capsys, *argv, "--out", str(target))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and str(target) in payload["error"]
    assert not target.parent.exists()


@pytest.mark.parametrize("kind,n,char,calls", [("D", 2, 3, 5), ("A", 3, 0, 13)])
def test_oracle_plan_truncates_each_node_once(monkeypatch, kind, n, char, calls):
    """Over a preset's oracle plan, every ``truncate_stratum`` call is for a
    distinct (node, level): leaves that are also split children are not
    truncated twice."""
    seen = []
    truncate = oracle.truncate_stratum

    def counting(sys, s, m):
        seen.append((s, m))
        return truncate(sys, s, m)

    monkeypatch.setattr(oracle, "truncate_stratum", counting)
    pr = preset(kind, n=n, char=char)
    for p, m in _oracle_plan(pr):
        assert _oracle_section(pr, p, m, 200_000)["ok"]
    assert len({(id(s), m) for s, m in seen}) == len(seen) == calls


def test_verify_all_workers_match_single_process(monkeypatch, tmp_path, capsys):
    """``ARCJET_WORKERS=2`` fans ``verify --all`` out over a process pool and
    writes the same bytes as one process."""
    small = [preset("A", 1, 2), preset("A", 2, 3), preset("D", 2, 3)]
    monkeypatch.setattr(cli, "preset_grid", lambda: iter(small))
    pools = []

    # the fan-out imports the pool at call time, so it reads this name
    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("ARCJET_WORKERS", workers)
        out = tmp_path / f"workers{workers}.json"
        assert main(["verify", "--all", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert pools == [2]
    assert reports[0] == reports[1]
    assert [r["preset"] for r in json.loads(reports[0])["presets"]] == sorted(
        pr.label for pr in small
    )


# -- fuzz: any arguments end in a report, a JSON error or a usage error -------

# the drawn values lean towards valid ones, so most runs get past argparse
PRESET_FLAGS = st.tuples(
    st.sampled_from(["A", "A", "D", "D", "E6", "E7", "E8", "F4"]),
    st.integers(-1, 5),
    st.sampled_from([0, 2, 3, 5, 7, 4]),
    st.sampled_from(["", "", "", "", "", "x*y*z", "x*y^2*z", "bogus"]),
).map(
    lambda t: ["--kind", t[0], "--n", str(t[1]), "--char", str(t[2])]
    + (["--variant", t[3]] if t[3] else [])
)
EQUATION = st.lists(
    st.sampled_from(
        ["x", "y1", "z2", "x1*y1", "z1^2", "t", "i", "q", "3", "1/2", "1/0", "+", "+",
         "-", "*", "^", "^2", "^200", "(", ")", " ", "(x1+y1)^9", "(x+y+z)"]
    ),
    min_size=1,
    max_size=8,
).map("".join)
LEVEL = st.sampled_from([-1, 0, 1, 2, 2, 3, 3, 4]).map(lambda m: ["--level", str(m)])
DERIVE = st.tuples(
    st.one_of(EQUATION.map(lambda e: ["--equation", e]), PRESET_FLAGS),
    st.sampled_from([[], [], ["--char", "3"], ["--char", "6"]]),
    LEVEL,
    st.sampled_from([[], [], ["--reduce", "x1,z2"], ["--reduce", "q0"], ["--reduce", ","]]),
).map(lambda t: ["derive", *t[0], *t[1], *t[2], *t[3]])
ORACLE = st.tuples(
    PRESET_FLAGS,
    st.sampled_from([[], ["--p", "2"], ["--p", "2"], ["--p", "3"], ["--p", "4"], ["--p", "1"], ["--p", "-5"]]),
    LEVEL,
    st.sampled_from([[], [], ["--check", "counts"], ["--check", "partition"], ["--check", "bogus"]]),
    st.sampled_from([20_000, 20_000, 20_000, 64, 0]).map(lambda b: ["--budget", str(b)]),
).map(lambda t: ["oracle", *t[0], *t[1], *t[2], *t[3], *t[4]])
COMPONENTS = PRESET_FLAGS.map(lambda flags: ["components", *flags])


@settings(max_examples=150, deadline=None)
@given(argv=st.one_of(DERIVE, ORACLE, COMPONENTS))
def test_fuzzed_arguments_exit_cleanly(argv):
    """Every run exits 0, 1 with a JSON report or error (``ok`` false) on
    stdout, or 2 (a usage error); nothing raises past ``main``, so no
    traceback is printed."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert json.loads(out.getvalue())["ok"] is False
    elif code == 2:
        assert out.getvalue() == ""


ROOT = Path(__file__).resolve().parent.parent
# the interpreters of ``requires-python = ">=3.10"`` checked beside the one
# that runs the suite
OTHER_PYTHONS = ("python3.10", "python3.12", "python3.13")


@pytest.mark.parametrize("name", OTHER_PYTHONS)
def test_each_supported_python_prints_the_golden_report(name):
    """``verify E8(char 7)`` run by ``arcjet.cli.main`` under each of these
    interpreters found on PATH, with only ``src`` on its path (no pytest
    needed there), prints the bytes whose sha256 the benchmark's workloads
    record for that operation."""
    exe = shutil.which(name)
    if exe is None:
        pytest.skip(f"{name} is not on PATH")
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
        PYTHONIOENCODING="utf-8",
    )
    env.pop("ARCJET_WORKERS", None)
    if shutil.which("pyenv"):
        # a pyenv shim runs only the versions selected: select every one
        bare = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True, text=True)
        env["PYENV_VERSION"] = ":".join(bare.stdout.split())
    version = subprocess.run(
        [exe, "-c", "import sys; print(*sys.version_info[:2], sep='.')"],
        env=env, capture_output=True, text=True,
    )
    if version.returncode:
        pytest.skip(f"{name} on PATH does not start: {version.stderr.strip()}")
    assert version.stdout.strip() == name.removeprefix("python")
    ops = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["verify-grid"]["ops"]
    [op] = [op for op in ops if op["id"] == "verify E8(char 7)"]
    run_main = "import sys; from arcjet.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [exe, "-c", run_main, *op["argv"]], env=env, capture_output=True, timeout=600
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == op["sha256"]
