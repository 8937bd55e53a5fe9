"""Command-line front end.

Subcommands:

  derive      print derivative levels of an equation (optionally reduced)
  components  run a preset's stratification, write the component inventory
  graph       build the level graph and export DOT or JSON
  oracle      finite-field checks (counts, coverage, partition)
  verify      the full check pipeline for one preset or the whole grid

Every report is a single JSON document (sections: congruences, components,
noninclusion, coverage, graph) with a human summary on stdout: each check
hands back JSON data, engine objects render through ``describe()``, and the
report goes through ``jetgraph.to_json`` (``json.dumps(indent=2,
sort_keys=True)``'s bytes on the C string encoder).  Exit code
0 means every check passed, 1 means a check failed (the report says
which) or a preset, equation, coordinate or characteristic was malformed
(a JSON error object), 2 is a usage error.  Identical invocations produce
byte-identical artifacts; `verify --all` can fan out across processes via
the ARCJET_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from typing import Optional

from .algebra import Field, Var, format_poly, parse_poly, var
from .catalog import (
    PresetError,
    SingularityPreset,
    components,
    noninclusion_matrix,
    preset,
    preset_grid,
    verify_congruence_table,
)
from .driver import StratificationTree, run_driver
from .hasse import JetSystem
from .jetgraph import build_graph, export, simple_branch_check, to_json
from .oracle import PROBE_BUDGET, OracleError, audit_tree, enumerate_fiber, probe_plan


class InputError(ValueError):
    """A malformed equation, coordinate or characteristic on the command line,
    or an output file that cannot be written."""


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            fh = open(out, "w")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror}") from None
        with fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
        if not text.endswith("\n"):
            _sys.stdout.write("\n")


def _emit_json(report: dict, out: Optional[str]) -> None:
    _emit(to_json(report) + "\n", out)


def _preset_from_args(args) -> SingularityPreset:
    return preset(args.kind, n=args.n, char=args.char, variant=args.variant)


def _add_preset_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--kind", choices=("A", "D", "E6", "E7", "E8"), required=required)
    p.add_argument("--n", type=int, default=0, help="rank parameter for A and D kinds")
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--variant", default="", help="extra equation term, e.g. 'x*y^3*z'")


# -- derive -----------------------------------------------------------------


def _equation_system(text: str, char: int) -> JetSystem:
    try:
        return JetSystem(parse_poly(text, Field(char)))
    except ValueError as exc:
        raise InputError(f"bad equation {text!r} in characteristic {char}: {exc}") from None


def _coordinate(name: str) -> Var:
    # a coordinate of the x, y or z family: t is the arc parameter
    try:
        if name[0] not in ("x", "y", "z"):
            raise ValueError(name)
        return var(name[0], int(name[1:]) if len(name) > 1 else 0)
    except (ValueError, IndexError):
        raise InputError(f"bad coordinate {name!r}") from None


def cmd_derive(args) -> int:
    if args.equation:
        sysm = _equation_system(args.equation, args.char)
    else:
        sysm = _preset_from_args(args).system
    zeros = frozenset()
    if args.reduce:
        zeros = frozenset(_coordinate(name.strip()) for name in args.reduce.split(","))
    lines = [f"f_{m} = {format_poly(sysm.derivative(m, zeros))}" for m in range(args.level + 1)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- components -------------------------------------------------------------


def _component_inventory(pr: SingularityPreset, tree: StratificationTree) -> dict:
    entries = []
    for comp in tree.components:
        chart = tree.chart_of(comp).stratum
        entries.append(
            {
                "name": comp.name,
                "emergence": comp.emergence,
                "charts": len(comp.chart_nodes),
                "descriptor": chart.describe(),
            }
        )
    return {
        "preset": pr.label,
        "count": len(entries),
        "expected": pr.expected_count,
        "components": entries,
    }


def cmd_components(args) -> int:
    pr = _preset_from_args(args)
    _emit_json(_component_inventory(pr, components(pr)), args.out)
    return 0


# -- graph ------------------------------------------------------------------


def cmd_graph(args) -> int:
    pr = _preset_from_args(args)
    g = build_graph(pr.system, pr.covers, args.max_level)
    _emit(export(g, args.format), args.out)
    rep = simple_branch_check(g)
    print(
        f"{pr.label}: {rep['chain_count']} chains in window {rep['window']}, "
        f"branch threshold {rep['threshold']}, {len(rep['flags'])} flags",
        file=_sys.stderr,
    )
    return 0


# -- oracle -----------------------------------------------------------------


def _oracle_section(pr: SingularityPreset, p: int, m: int, budget: int) -> dict:
    pts = enumerate_fiber(pr.system, p, m, budget=budget)
    tree = run_driver(pr.system, pr.covers, max_level=m)
    exclusive, partition = audit_tree(pr.system, tree, pts)
    return {
        "prime": p,
        "level": m,
        "points": len(pts),
        "uncovered": len(exclusive["uncovered"]),
        "exclusive": exclusive["ok"],
        "partition": partition["ok"],
        "ok": exclusive["ok"] and partition["ok"],
    }


def cmd_oracle(args) -> int:
    pr = _preset_from_args(args)
    p = args.p or pr.char
    if args.check == "counts":
        pts = enumerate_fiber(pr.system, p, args.level, budget=args.budget)
        report = {"preset": pr.label, "prime": p, "level": args.level, "points": len(pts), "ok": True}
    else:
        section = _oracle_section(pr, p, args.level, args.budget)
        report = {"preset": pr.label, **section}
        report["ok"] = section["exclusive"] if args.check == "coverage" else section["partition"]
    _emit_json(report, args.out)
    return 0 if report["ok"] else 1


# -- verify -----------------------------------------------------------------

def _verify_one(pr: SingularityPreset, graph_level: int = 0) -> dict:
    report: dict = {"preset": pr.label}
    congr = verify_congruence_table(pr)
    report["congruences"] = {
        "lines": len(congr["lines"]),
        "discrepancies": congr["discrepancies"],
        "ok": congr["ok"],
    }
    try:
        tree = components(pr)
    except PresetError as exc:
        report["components"] = {"ok": False, "error": str(exc)}
        report["noninclusion"] = {"ok": False, "error": "skipped"}
        report["coverage"] = []
        report["graph"] = None
        report["ok"] = False
        return report
    # components() raised above on a count mismatch
    report["components"] = {**_component_inventory(pr, tree), "ok": True}
    matrix = noninclusion_matrix(pr, tree)
    report["noninclusion"] = {
        "pairs": len(matrix["pairs"]),
        "unresolved": [list(pair) for pair in matrix["unresolved"]],
        "certificates": [v.describe() for v in matrix["pairs"] if v.certificate is not None],
        "ok": matrix["ok"],
    }
    cov = []
    for p, m in probe_plan(pr.equation.field).items():
        try:
            cov.append(_oracle_section(pr, p, m, PROBE_BUDGET))
        except OracleError as exc:
            cov.append({"prime": p, "level": m, "ok": False, "error": str(exc)})
    report["coverage"] = cov
    if graph_level:
        g = build_graph(pr.system, pr.covers, graph_level)
        rep = simple_branch_check(g)
        rep["ok"] = rep["ok"] and rep["chain_count"] == pr.expected_count
        report["graph"] = rep
    else:
        report["graph"] = None
    report["ok"] = (
        report["congruences"]["ok"]
        and report["components"]["ok"]
        and report["noninclusion"]["ok"]
        and all(s.get("ok") for s in cov)
        and (report["graph"] is None or report["graph"]["ok"])
    )
    return report


def _verify_label(key: tuple[str, int, int, str]) -> dict:
    kind, n, char, variant = key
    return _verify_one(preset(kind, n=n, char=char, variant=variant))


def cmd_verify(args) -> int:
    if args.all:
        keys = [
            (pr.kind, pr.n, pr.char, pr.variant) for pr in preset_grid()
        ]
        if args.workers > 1:
            # imported here: the pool stack (multiprocessing, socket,
            # pickle, subprocess, ...) costs every other process start-up
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                results = list(pool.map(_verify_label, keys))
        else:
            results = [_verify_label(k) for k in keys]
        results.sort(key=lambda r: r["preset"])
        report = {"presets": results, "ok": all(r["ok"] for r in results)}
    else:
        report = _verify_one(_preset_from_args(args), graph_level=args.graph_level)
    _emit_json(report, args.out)
    if args.out:
        if args.all:
            for r in report["presets"]:
                print(f"{'PASS' if r['ok'] else 'FAIL'} {r['preset']}")
        print("PASS" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


# -- argument plumbing ------------------------------------------------------


def _int_at_least(low: int, what: str):
    """An argparse type for a level or budget flag: an integer no smaller
    than ``low`` (anything else is a usage error, exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {value}")
        return value

    return parse


def _worker_count(ap: argparse.ArgumentParser) -> int:
    """``ARCJET_WORKERS`` (default 1): an integer of at least 1, else a usage error."""
    text = os.environ.get("ARCJET_WORKERS", "1").strip()
    if not (text.isdecimal() and int(text) >= 1):
        ap.error(f"ARCJET_WORKERS must be an integer of at least 1, got {text!r}")
    return int(text)


def _apply_config(argv: list[str]) -> list[str]:
    """Expand `--config FILE` (key = value lines) into leading flags so
    explicit command-line flags still win (errors: the full parser's usage)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        make_parser().error("--config needs a file")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    injected: list[str] = []
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        make_parser().error(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError:
        make_parser().error(f"cannot read config file {path}: not valid text")
    for line in text.split("\n"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                injected.append(f"--{key}")
        else:
            injected.extend([f"--{key}", value])
    # keep the subcommand first
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + injected + rest[1:]
    return injected + rest


# each subcommand's help line and handler, in the order ``--help`` lists them
COMMANDS = {
    "derive": ("print derivative levels", cmd_derive),
    "components": ("stratify a preset and list components", cmd_components),
    "graph": ("build and export the level graph", cmd_graph),
    "oracle": ("finite-field brute-force checks", cmd_oracle),
    "verify": ("full verification pipeline", cmd_verify),
}


def make_parser(command: str = "") -> argparse.ArgumentParser:
    """The ``arcjet`` parser; given a known ``command``, with only its subparser."""
    ap = argparse.ArgumentParser(prog="arcjet")
    names = [command] if command in COMMANDS else list(COMMANDS)
    # narrowed, the usage line must still list every command; the full parser
    # keeps the default, so its errors still call the argument ``command``
    metavar = "{%s}" % ",".join(COMMANDS) if len(names) == 1 else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        text, func = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        if name == "verify":
            p.add_argument("--all", action="store_true", help="run the whole preset grid")
        _add_preset_flags(p, required=name in ("components", "graph", "oracle"))
        if name == "derive":
            p.add_argument("--equation", default="", help="raw equation text instead of a preset")
            p.add_argument("--level", type=_int_at_least(0, "level"), default=8)
            p.add_argument("--reduce", default="", help="comma list of coordinates to zero out")
        elif name == "graph":
            p.add_argument("--max-level", type=_int_at_least(1, "level"), default=16)
            p.add_argument("--format", choices=("dot", "json"), default="dot")
        elif name == "oracle":
            p.add_argument("--p", type=int, default=0, help="probe prime (defaults to preset characteristic)")
            p.add_argument("--level", type=_int_at_least(0, "level"), default=3)
            p.add_argument("--check", choices=("counts", "coverage", "partition"), default="coverage")
            p.add_argument("--budget", type=_int_at_least(1, "budget"), default=10_000_000,
                           help="most candidate triples (p^3 per prefix it extends) the fiber search tests")
        elif name == "verify":
            p.add_argument("--graph-level", type=_int_at_least(0, "level"), default=0,
                           help="also build the level graph to this level (0: no graph)")
        p.add_argument("--out", default="")
        p.set_defaults(func=func)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    argv = _apply_config(list(_sys.argv[1:] if argv is None else argv))
    ap = make_parser(argv[0] if argv else "")
    args = ap.parse_args(argv)
    if args.command == "verify" and not args.all and not args.kind:
        ap.error("verify needs --kind or --all")
    if args.command == "verify" and args.all:
        if args.graph_level:
            ap.error("--graph-level takes one preset (--kind), not --all")
        args.workers = _worker_count(ap)
    if args.command == "derive" and not args.equation and not args.kind:
        ap.error("derive needs --equation or --kind")
    if args.command == "oracle" and not args.p and not args.char:
        ap.error("--p is required for characteristic-0 presets")
    try:
        return args.func(args)
    except (PresetError, OracleError, InputError) as exc:
        print(json.dumps({"ok": False, "error": str(exc)}, sort_keys=True))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
