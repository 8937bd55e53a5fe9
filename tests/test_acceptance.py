"""Acceptance gate: one test (and one printed verdict line) per criterion.

These are the binding end-to-end checks; the per-module suites cover the
same ground at finer grain.  Each test prints PASS/FAIL to the real stdout
so the verdict survives pytest's capture.
"""

import hashlib
import random
import time
from itertools import product

import pytest

from arcjet.algebra import Field, Polynomial, QQ, parse_poly, var
from arcjet.catalog import (
    components,
    golden_table,
    legal_variants,
    noninclusion_matrix,
    preset,
    preset_grid,
    verify_congruence_table,
)
from arcjet.cli import main as cli_main
from arcjet.driver import run_driver
from arcjet.hasse import JetSystem, frontier_of
from arcjet.jetgraph import build_graph, export, simple_branch_check
from arcjet.oracle import (
    coverage_check,
    enumerate_fiber,
    exclusive_cover_check,
    split_partition_check,
)

from reference_hasse import congruence_shape, linearize, series_oracle
from reference_oracle import truncated_leaves


_CAPFD = None


@pytest.fixture(autouse=True)
def _grab_capfd(capfd):
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, detail


# 1 ── component counts over the whole preset grid ---------------------------


def test_criterion_1_component_counts():
    slowest = 0.0
    total = 0
    failures = []
    for pr in preset_grid():
        t0 = time.monotonic()
        try:
            tree = components(pr)
            if len(tree.components) != pr.expected_count:
                failures.append(pr.label)
        except Exception as exc:  # count or absorption mismatch
            failures.append(f"{pr.label}: {exc}")
        slowest = max(slowest, time.monotonic() - t0)
        total += 1
    ok = not failures and slowest < 60.0
    verdict(
        1,
        ok,
        f"{total} presets, all expected counts, slowest {slowest:.1f}s"
        if ok
        else f"failures={failures} slowest={slowest:.1f}s",
    )


# 2 ── golden congruence tables ----------------------------------------------


def test_criterion_2_congruence_tables():
    problems = []
    strict_lines = 0
    reports = 0
    for pr in preset_grid():
        rep = verify_congruence_table(pr)
        reports += 1
        if pr.variant == "":
            strict_lines += sum(1 for l in rep["lines"] if l["strict"])
        if not rep["ok"]:
            problems.append((pr.label, rep["discrepancies"]))
        if rep["discrepancies"]:
            # tolerated only when the component count still comes out right
            try:
                components(pr)
            except Exception as exc:
                problems.append((pr.label, str(exc)))
    # the three table families must actually be present
    assert len(golden_table(preset("A", n=3, char=0))) >= 2
    assert (
        sum(len(golden_table(preset("D", n=n, char=0))) for n in (2, 3, 4)) >= 10
    )
    assert len(golden_table(preset("E8", char=0))) == 29
    ok = not problems and strict_lines > 0
    verdict(
        2,
        ok,
        f"{reports} table reports, {strict_lines} strict lines, no unexcused mismatch"
        if ok
        else f"problems={problems[:3]}",
    )


# 3 ── non-inclusion certificates --------------------------------------------


def test_criterion_3_noninclusion():
    problems = []
    for char in (0, 2, 3, 5, 7):
        pr = preset("E8", char=char)
        mat = noninclusion_matrix(pr, components(pr))
        if not mat["ok"] or len(mat["pairs"]) != 56:
            problems.append(f"E8 char {char}: unresolved {mat['unresolved']}")
            continue
        (v,) = [p for p in mat["pairs"] if (p.excluded, p.container) == (1, 0)]
        want = var("x", 4) if char == 2 else var("z", 5)
        if (
            v.certificate is None
            or v.certificate.kind != "forced-vanishing"
            or v.certificate.target != want
        ):
            problems.append(f"E8 char {char}: first-pair certificate {v.certificate}")
    # witness congruences for the D family, sampled i < j, by direct
    # recomputation
    for n, i, j in ((3, 1, 2), (3, 2, 3), (4, 1, 4), (4, 2, 3), (4, 3, 5)):
        assert i < j <= 2 * n - 3
        pr = preset("D", n=n, char=0)
        sysm = pr.system
        low = {var("x", k) for k in range(j) if k != i}
        low |= {var("y", 0), var("y", 1)}
        low |= {var("z", k) for k in range(j + 1)}
        if sysm.derivative(2 * i + 2).reduce_mod_vars(frozenset(low)) != parse_poly(
            f"x{i}^2*y2", sysm.field
        ):
            problems.append(f"D n={n} witness low ({i},{j})")
        high = {var("x", k) for k in range(j)} | {var("y", 0), var("y", 1)}
        high |= {var("z", k) for k in range(j + 1)}
        if sysm.derivative(2 * j + 2).reduce_mod_vars(frozenset(high)) != parse_poly(
            f"x{j}^2*y2 + z{j+1}^2", sysm.field
        ):
            problems.append(f"D n={n} witness high ({i},{j})")
    verdict(
        3,
        not problems,
        "E8: 28 pairs x 2 directions certified in all characteristics, pinned "
        "first-pair certificates, D witness congruences recomputed"
        if not problems
        else f"problems={problems}",
    )


# 4 ── the two derivative routes agree ---------------------------------------


def random_base_poly(rng, field):
    f = Polynomial.zero(field)
    for _ in range(rng.randint(1, 5)):
        c = rng.choice([c for c in range(-9, 10) if c])
        term = Polynomial.const(field, c)
        for fam in "xyz":
            e = rng.randint(0, 2)
            if e:
                term = term * Polynomial.variable(field, var(fam, 0), e)
        f = f + term
    return f


def test_criterion_4_derivative_routes_agree():
    rng = random.Random(271828)
    checked = 0
    for fld in (QQ, Field(2), Field(3), Field(5)):
        for _ in range(55):
            f = random_base_poly(rng, fld)
            m = rng.randint(0, 8)
            sysm = JetSystem(f)
            ref = series_oracle(f, m)
            for k in range(m + 1):
                if sysm.derivative(k) != ref[k]:
                    verdict(4, False, f"mismatch at order {k} for {f} over char {fld.char}")
            checked += 1
    verdict(4, checked >= 200, f"{checked} random equations agree on both routes, m <= 8")


# 5 ── structure of reductions in the large-characteristic regime ------------


def in_regime(pr):
    deg = max(
        sum(e for _, e in mono) for mono in pr.equation.terms
    )
    return pr.char == 0 or pr.char > deg


def ladder_ideals(pr):
    for line in golden_table(pr):
        yield line.level, frozenset(line.zeroed)


def test_criterion_5_reduction_structure():
    problems = []
    out_of_regime_notes = 0
    in_regime_checks = 0
    for pr in preset_grid():
        if pr.variant or pr.kind in ("E6", "E7"):
            continue
        sysm = pr.system
        for level, zs in ladder_ideals(pr):
            lower_ok = all(
                not sysm.derivative(k).reduce_mod_vars(zs) for k in range(level)
            )
            if not lower_ok:
                continue  # witness lines restrict a different context
            shape = congruence_shape(sysm, level, zs)
            fr = frontier_of(zs)
            frontier_only = all(
                v[1] == fr[v[0]] for v in shape.reduced.variables()
            )
            structured = shape.exponent_set is not None and frontier_only
            if in_regime(pr):
                if shape.reduced and not structured:
                    problems.append(f"{pr.label} level {level}: unstructured reduction")
                in_regime_checks += 1
            elif shape.reduced and not structured:
                out_of_regime_notes += 1  # logged, not fatal
            # linearization reassembles the next derivative in every case
            for offset in (1, 2):
                try:
                    lin = linearize(sysm, level, zs, offset)
                except ValueError:
                    continue  # nonlinear tail: outside the decomposition's scope
                total = lin.rest
                for fam in "xyz":
                    total = total + lin.tail_coeffs[fam] * Polynomial.variable(
                        sysm.field, var(fam, fr[fam] + offset)
                    )
                if total != sysm.derivative(level + offset).reduce_mod_vars(zs):
                    problems.append(f"{pr.label} level {level}+{offset}: bad split")
    # random in-regime instances
    rng = random.Random(314159)
    for _ in range(40):
        fld = rng.choice([QQ, Field(7)])
        f = random_base_poly(rng, fld)
        deg = max((sum(e for _, e in mono) for mono in f.terms), default=0)
        if fld.char and fld.char <= deg:
            continue
        sysm = JetSystem(f)
        zs = frozenset(
            var(fam, k)
            for fam in "xyz"
            for k in range(rng.randint(0, 2))
        )
        n = 0
        while n < 20 and not sysm.derivative(n).reduce_mod_vars(zs):
            n += 1
        if n == 20:
            continue
        shape = congruence_shape(sysm, n, zs)
        if shape.reduced and shape.exponent_set is None:
            problems.append(f"random {f}: unstructured in regime")
        in_regime_checks += 1
    ok = not problems and in_regime_checks > 30
    verdict(
        5,
        ok,
        f"{in_regime_checks} in-regime reductions structured, "
        f"{out_of_regime_notes} out-of-regime deviations logged"
        if ok
        else f"problems={problems[:4]}",
    )


# 6 ── finite-field coverage and partition -----------------------------------


ORACLE_PRESETS = (("A", 1), ("A", 2), ("D", 2), ("E8", 8))


def test_criterion_6_oracle_coverage_partition():
    t0 = time.monotonic()
    problems = []
    pinned = None
    for (kind, n), p in product(ORACLE_PRESETS, (2, 3)):
        max_m = 5 if p == 2 else 4
        pr = preset(kind, n=n, char=p)
        sysm = JetSystem(pr.equation)
        for m in range(2, max_m + 1):
            pts = enumerate_fiber(sysm, p, m)
            if (kind, n, p, m) == ("A", 1, 2, 2):
                pinned = len(pts)
            tree = run_driver(sysm, pr.covers, max_level=m)
            leaves = truncated_leaves(sysm, tree, m)
            if coverage_check(pts, [T for _, T in leaves]):
                problems.append(f"{pr.label} m={m}: uncovered points")
                continue
            excl = exclusive_cover_check(pts, leaves)
            if not excl["ok"]:
                problems.append(f"{pr.label} m={m}: not a partition by leaf group")
            part = split_partition_check(sysm, tree, pts)
            if not part["ok"]:
                problems.append(f"{pr.label} m={m}: split nodes do not partition")
    elapsed = time.monotonic() - t0
    if pinned != 32:
        problems.append(f"pinned smallest fiber: {pinned} != 32")
    if elapsed >= 300:
        problems.append(f"too slow: {elapsed:.0f}s")
    verdict(
        6,
        not problems,
        f"4 presets x (p=2, m<=5; p=3, m<=4) partitioned exactly, pinned 32-point "
        f"fiber, {elapsed:.0f}s"
        if not problems
        else f"problems={problems}",
    )


# 7 ── chain structure of the level graph at depth 35 ------------------------


# sha256 of `arcjet graph --kind E8 --char 0 --max-level 35 --format json`
# as printed (export text plus the trailing newline the CLI adds)
E8_CHAR0_GRAPH_SHA256 = "340d931536fde49d6ab3d02b9d75a4e7fc9433b31b06340744cb55dddc1220c3"


def test_criterion_7_graph_window():
    cases = [("", 0)] + [(h, 2) for h in legal_variants("E8", 8, 2)]
    problems = []
    thresholds = []
    for h, char in cases:
        pr = preset("E8", char=char, variant=h)
        g = build_graph(JetSystem(pr.equation), pr.covers, 35)
        check = simple_branch_check(g)
        label = pr.label
        if (h, char) == ("", 0):
            digest = hashlib.sha256((export(g, "json") + "\n").encode()).hexdigest()
            if digest != E8_CHAR0_GRAPH_SHA256:
                problems.append(f"{label}: JSON export sha256 {digest}")
        if not check["ok"] or check["chain_count"] != 8:
            problems.append(f"{label}: chains={check['chain_count']} ok={check['ok']}")
            continue
        thresholds.append((label, check["threshold"]))
        for v in g.vertices:
            if v.level >= check["threshold"] and v.level < g.max_level:
                if len(g.children(v.vid)) != 1:
                    problems.append(f"{label}: branch above threshold at {v.label}")
    verdict(
        7,
        not problems,
        f"8 simple chains to level 35 in every case; reported thresholds "
        + ", ".join(f"{l}->{t}" for l, t in thresholds)
        if not problems
        else f"problems={problems}",
    )


# 8 ── byte-identical full verification runs ---------------------------------


VERIFY_ALL_SHA256 = "0e252f0f4bc3ce6d911abfc8758b6c446dffd41b720683d2f2dca7d53a5d56df"


def test_criterion_8_determinism(tmp_path):
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    code1 = cli_main(["verify", "--all", "--out", str(out1)])
    code2 = cli_main(["verify", "--all", "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    digest = hashlib.sha256(out1.read_bytes()).hexdigest()
    golden = digest == VERIFY_ALL_SHA256
    ok = code1 == 0 and code2 == 0 and same and golden
    verdict(
        8,
        ok,
        "two consecutive `verify --all` runs byte-identical, passing and golden"
        if ok
        else f"codes=({code1},{code2}) identical={same} sha256={digest}",
    )
