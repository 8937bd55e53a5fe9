"""Command-line entry point: subcommands, exit codes, config expansion."""

import argparse
import concurrent.futures
import hashlib
import json
import os
import shutil
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from arcjet import cli, oracle
from arcjet.algebra import MAX_EXPONENT, MAX_TERMS
from arcjet.catalog import SingularityPreset, preset
from arcjet.cli import _oracle_section, main
from arcjet.driver import Component
from arcjet.oracle import probe_plan
from arcjet.hasse import JetSystem
from arcjet.jetgraph import to_json


ROOT = Path(__file__).resolve().parent.parent


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
    for p, m in probe_plan(pr.equation.field).items():
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


def assert_json_values(obj):
    # a tuple would be a coordinate (family, order) that no describe() named,
    # or a pair of component indices: the emitter refuses both
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for value in obj:
            assert_json_values(value)
    else:
        assert isinstance(obj, (str, int, bool, type(None))), repr(obj)


def test_a_verify_report_holds_only_json_values():
    report = cli._verify_one(preset("E8", char=0))
    assert report["ok"] and report["noninclusion"]["certificates"]
    assert_json_values(report)


def with_unresolved_pairs(monkeypatch):
    """Make the CLI's non-inclusion check see a second component on K1's
    chart: no certificate separates a chart from itself, so both ordered
    pairs with it stay unresolved and the check fails."""
    real = cli.noninclusion_matrix

    def with_copy(pr, tree):
        first = tree.components[0]
        copy = Component(len(tree.components), first.emergence)
        copy.chart_nodes = list(first.chart_nodes)
        tree.components.append(copy)
        return real(pr, tree)

    monkeypatch.setattr(cli, "noninclusion_matrix", with_copy)


def test_a_failed_noninclusion_check_is_reported_as_json(monkeypatch, capsys):
    """The failure the verifier exists to report: the unresolved pairs are
    written as JSON lists, with json.dumps's bytes, and the run exits 1."""
    with_unresolved_pairs(monkeypatch)
    report = cli._verify_one(preset("A", n=2, char=3))
    assert report["noninclusion"]["unresolved"] == [[0, 2], [2, 0]]
    assert report["noninclusion"]["ok"] is False and report["ok"] is False
    assert_json_values(report)
    code, out = run(capsys, "verify", "--kind", "A", "--n", "2", "--char", "3")
    assert code == 1 and out == reference_json(report) + "\n"


# -- the JSON emitter: json.dumps(indent=2, sort_keys=True)'s bytes ----------


def reference_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def checked_emitter(monkeypatch, seen: list):
    """Route every report the CLI writes through ``to_json`` and check it
    against ``json.dumps`` on the same object."""

    def emit(obj):
        text = to_json(obj)
        assert text == reference_json(obj)
        seen.append(obj)
        return text

    monkeypatch.setattr(cli, "to_json", emit)


def test_the_emitter_writes_json_dumps_bytes_for_every_verify_report(monkeypatch, tmp_path, capsys):
    """The 12 verify-grid reports, each with the bytes the benchmark pins,
    and the ``verify --all`` report."""
    monkeypatch.delenv("ARCJET_WORKERS", raising=False)
    seen: list = []
    checked_emitter(monkeypatch, seen)
    ops = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["verify-grid"]["ops"]
    assert len(ops) == 12
    for op in ops:
        code, out = run(capsys, *op["argv"])
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == op["sha256"], op["id"]
    assert main(["verify", "--all", "--out", str(tmp_path / "all.json")]) == 0
    assert len(seen) == 13 and len(seen[-1]["presets"]) == 69


JSON_TEXT = st.one_of(
    st.text(),
    # quotes, backslashes, control characters, U+2028/9, a lone surrogate,
    # non-ASCII letters and an astral character
    st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\u2028", "\u2029",
                             "\ud800", "\u00e9", "\u0416", "\U0001f600", "a", " "])),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(JSON_TEXT, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(obj=JSON_VALUES)
@example(obj=[[], {}, [[]], {"": {}}, {"a": []}])
@example(obj=["a", 1, True, None, "b"])
@example(obj=[1, "a", "\u2028", ['"\\']])
@example(obj=-(10**40) + 1)
def test_the_emitter_matches_json_dumps_on_json_values(obj):
    assert to_json(obj) == reference_json(obj)


@pytest.mark.parametrize(
    "obj",
    [1.5, {1, 2}, {1: "a"}, ["a", 2.0], {"a": [None, {3: 4}]}, ("x", 3), b"x"],
    ids=["float", "set", "int-key", "float-after-strings", "nested-int-key", "tuple", "bytes"],
)
def test_the_emitter_rejects_what_is_not_a_json_value(obj):
    # control: json.dumps would print some of these (a float, an int key, a
    # tuple as a list); the report builders write lists and str keys, so the
    # emitter refuses them
    with pytest.raises(TypeError):
        to_json(obj)


def test_bad_preset_is_a_clean_failure(capsys):
    code, out = run(capsys, "verify", "--kind", "E6", "--char", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False and "error" in payload


def moved_preset(monkeypatch, **changes):
    """Make the CLI's presets ``preset(...)`` with some fields changed."""
    fields = ("kind", "n", "char", "variant", "equation", "covers", "expected_count", "max_level")

    def moved(*args, **kwargs):
        pr = preset(*args, **kwargs)
        values = {f: getattr(pr, f) for f in fields}
        values.update({k: change(pr) for k, change in changes.items()})
        return SingularityPreset(*(values[f] for f in fields))

    monkeypatch.setattr(cli, "preset", moved)


def test_verify_reports_a_wrong_component_count(monkeypatch, capsys):
    """``components`` raising a ``PresetError`` writes the error sections,
    skips the later checks and exits 1."""
    moved_preset(monkeypatch, expected_count=lambda pr: pr.expected_count + 1)
    code, out = run(capsys, "verify", "--kind", "A", "--n", "2", "--char", "3")
    assert code == 1
    report = json.loads(out)
    assert report["congruences"]["ok"] is True
    assert report["components"] == {
        "ok": False, "error": "A2(char 3): got 2 components, expected 3",
    }
    assert report["noninclusion"] == {"ok": False, "error": "skipped"}
    assert report["coverage"] == [] and report["graph"] is None
    assert report["ok"] is False


def test_verify_reports_an_oracle_error_in_one_coverage_section(monkeypatch, capsys):
    """A coefficient with a denominator of 2 has no value at p = 2: that
    section is an error and the run exits 1, while the p = 3 section of the
    same report still audits its fiber."""
    moved_preset(monkeypatch, equation=lambda pr: pr.equation.scale(Fraction(1, 2)))
    code, out = run(capsys, "verify", "--kind", "A", "--n", "2")
    assert code == 1
    report = json.loads(out)
    two, three = report["coverage"]
    assert two == {
        "prime": 2, "level": 5, "ok": False,
        "error": "coefficient 1/2 has a denominator that vanishes in F_2 (term x0*y0)",
    }
    assert three["prime"] == 3 and three["ok"] is True and three["points"] == 3645
    assert report["components"]["ok"] is True and report["noninclusion"]["ok"] is True
    assert report["ok"] is False


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


def test_a_true_config_line_is_a_flag(capsys, tmp_path, monkeypatch):
    """``all = true`` injects ``--all`` (``false`` injects nothing), and a
    flag given on the command line still wins over a config line."""
    ran = []

    def stub(key):
        ran.append(key)
        return {"preset": "%s%d(char %d)%s" % key, "ok": True}

    monkeypatch.setattr(cli, "_verify_label", stub)
    monkeypatch.delenv("ARCJET_WORKERS", raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("all = true\n")
    code, out = run(capsys, "verify", "--config", str(cfg))
    assert code == 0 and len(json.loads(out)["presets"]) == len(ran) == 69
    cfg.write_text("all = true\ngraph-level = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfg)])
    assert exc.value.code == 2  # --graph-level takes one preset
    capsys.readouterr()
    code, _ = run(capsys, "verify", "--config", str(cfg), "--graph-level", "0")
    assert code == 0 and len(ran) == 2 * 69
    cfg.write_text("all = false\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfg)])
    assert exc.value.code == 2  # verify needs --kind or --all
    assert len(ran) == 2 * 69


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


# usage errors by id; a leading ``NAME=value`` item sets an environment
# variable, and ``{missing}``, ``{binary}`` and ``{config}`` name files
USAGE_ERRORS = {
    "missing-config": ["verify", "--config", "{missing}"],
    "config-not-text": ["verify", "--config", "{binary}"],
    "derive-without-input": ["derive"],
    "oracle-char0-without-p": ["oracle", "--kind", "A", "--n", "1"],
    "derive-negative-level": ["derive", "--equation", "z^2 + x*y", "--level", "-1"],
    "oracle-negative-level": ["oracle", "--kind", "A", "--n", "1", "--char", "2", "--level", "-1"],
    "graph-zero-max-level": ["graph", "--kind", "A", "--n", "1", "--max-level", "0"],
    "verify-negative-graph-level": ["verify", "--kind", "A", "--n", "1", "--graph-level", "-1"],
    "verify-all-bad-workers": ["ARCJET_WORKERS=abc", "verify", "--all"],
    "verify-all-superscript-workers": ["ARCJET_WORKERS=\u00b2", "verify", "--all"],
    "verify-all-with-graph-level": ["verify", "--all", "--graph-level", "3"],
    "oracle-zero-budget": ["oracle", "--kind", "A", "--n", "1", "--char", "2", "--budget", "0"],
    "oracle-negative-budget": ["oracle", "--kind", "A", "--n", "1", "--char", "2", "--budget", "-5"],
    "derive-level-not-a-number": ["derive", "--equation", "z^2 + x*y", "--level", "abc"],
    "config-without-file": ["verify", "--kind", "A", "--n", "1", "--config"],
    "config-without-subcommand": ["--config", "{config}"],
}


def usage_argv(argv, tmp_path, monkeypatch) -> list[str]:
    """``argv`` with its leading ``NAME=value`` items set in the environment
    and its file placeholders filled in; no preset of ``verify --all`` may
    run."""
    monkeypatch.setattr(cli, "_verify_label", lambda key: pytest.fail(f"{key} ran"))
    argv = list(argv)
    while argv and "=" in argv[0]:
        name, _, value = argv.pop(0).partition("=")
        monkeypatch.setenv(name, value)
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe")
    config = tmp_path / "run.cfg"
    config.write_text("kind = A\nn = 1\n")
    return [a.format(missing=tmp_path / "missing.cfg", binary=binary, config=config) for a in argv]


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_errors_exit_2(capsys, tmp_path, monkeypatch, argv):
    """The error comes before any preset of ``verify --all`` runs."""
    with pytest.raises(SystemExit) as exc:
        main(usage_argv(argv, tmp_path, monkeypatch))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# -- the parser: only the subcommand's, with the full parser's messages -------


def subcommands(ap: argparse.ArgumentParser) -> list[str]:
    [action] = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def captured_main(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)``, usage exits included."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_run_builds_only_its_subcommand_parser(monkeypatch, command):
    assert subcommands(cli.make_parser(command)) == [command]
    built = []
    real = cli.make_parser

    def recorded(command=""):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "make_parser", recorded)
    code, out, _ = captured_main([command, "--help"])
    assert code == 0 and out.startswith(f"usage: arcjet {command} ")
    assert built == [command]


def test_no_known_subcommand_builds_the_full_parser():
    for command in ("", "bogus", "--help", "-h"):
        assert subcommands(cli.make_parser(command)) == list(cli.COMMANDS)


PARSER_INPUTS = {
    **{f"{command}-help": [command, "--help"] for command in cli.COMMANDS},
    "help": ["--help"],
    "no-argv": [],
    "unknown-subcommand": ["bogus", "--kind", "A"],
    "unrecognized-flag": ["verify", "--bogus"],
    "bad-choice": ["verify", "--kind", "F4"],
    **USAGE_ERRORS,
}


@pytest.mark.parametrize("argv", list(PARSER_INPUTS.values()), ids=list(PARSER_INPUTS))
def test_the_narrowed_parser_prints_what_the_full_parser_prints(monkeypatch, tmp_path, argv):
    """Every ``--help`` text and usage error, and its exit code, is the same
    byte for byte whether ``main`` builds one subcommand's parser or all of
    them (the reference: ``make_parser`` ignoring its argument)."""
    argv = usage_argv(argv, tmp_path, monkeypatch)
    narrowed = captured_main(argv)
    full = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda command="": full())
    assert captured_main(argv) == narrowed
    code, out, err = narrowed
    assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))


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
    for p, m in probe_plan(pr.equation.field).items():
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


# the interpreters of ``requires-python = ">=3.10"`` checked beside the one
# that runs the suite
OTHER_PYTHONS = ("python3.10", "python3.12", "python3.13")


@pytest.mark.parametrize("name", OTHER_PYTHONS)
def test_each_supported_python_prints_the_golden_report(name):
    """``verify E8(char 7)`` and ``graph A2(char 0) to 8`` run by
    ``arcjet.cli.main`` under each of these interpreters found on PATH, with
    only ``src`` on its path (no pytest needed there), print the bytes whose
    sha256 the benchmark's workloads record for those operations; and a
    usage error of the narrowed parser prints what the full parser prints."""
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
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    ops = workloads["verify-grid"]["ops"] + workloads["graph-probe"]["ops"]
    run_main = "import sys; from arcjet.cli import main; sys.exit(main(sys.argv[1:]))"
    for op_id in ("verify E8(char 7)", "graph A2(char 0) to 8"):
        [op] = [op for op in ops if op["id"] == op_id]
        done = subprocess.run(
            [exe, "-c", run_main, *op["argv"]], env=env, capture_output=True, timeout=600
        )
        assert done.returncode == 0, done.stderr.decode()
        assert hashlib.sha256(done.stdout).hexdigest() == op["sha256"], op_id
    full_parser = "import sys; from arcjet.cli import make_parser; make_parser().parse_args(sys.argv[1:])"
    usage = ["verify", "--kind", "A", "--bogus"]
    narrowed, full = (
        subprocess.run([exe, "-c", code, *usage], env=env, capture_output=True, timeout=60)
        for code in (run_main, full_parser)
    )
    assert narrowed.returncode == full.returncode == 2
    assert narrowed.stderr == full.stderr and b"unrecognized arguments: --bogus" in full.stderr
