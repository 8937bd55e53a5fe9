"""Named singularity presets: counts, reduction tables, separation evidence."""

import pytest

from arcjet import driver
from arcjet.algebra import QQ, parse_poly, var
from arcjet.catalog import (
    PairVerdict,
    PresetError,
    SingularityPreset,
    _base_equation,
    components,
    golden_table,
    legal_variants,
    noninclusion_matrix,
    preset,
    preset_grid,
    supported_chars,
    verify_congruence_table,
)
from arcjet.cli import _component_inventory
from arcjet.driver import coxeter_number, run_driver
from arcjet.strata import EngineError


# -- preset plumbing --------------------------------------------------------


def test_preset_rejections():
    with pytest.raises(PresetError):
        preset("A", n=0)
    with pytest.raises(PresetError):
        preset("D", n=1)
    with pytest.raises(PresetError):
        preset("E6", char=2)  # the two-factor geometry degenerates
    with pytest.raises(PresetError):
        preset("Q", n=1)
    with pytest.raises(PresetError):
        preset("E8", char=11)
    with pytest.raises(PresetError):
        preset("A", n=2, char=0, variant="x*y^3*z")


def test_supported_chars():
    assert supported_chars("A") == (0, 2, 3, 5, 7)
    assert 2 not in supported_chars("E6")
    assert 2 in supported_chars("E7")


def test_variant_lists():
    # variants exist only where the base form is not already generic
    assert legal_variants("A", 1, 0) == ("",)
    assert len(legal_variants("E8", 8, 2)) > 1
    assert legal_variants("E8", 8, 0) == ("",)


# -- the terminal cover from the relation, E8's two unit sets ---------------


@pytest.mark.parametrize(
    "kind,n,h",
    [("A", n, n + 1) for n in range(1, 7)]
    + [("D", n, 4 * n - 2) for n in (2, 3, 4)]
    + [("E6", 6, 12), ("E7", 7, 18), ("E8", 8, 30)],
)
def test_coxeter_number_of_base_equations(kind, n, h):
    # the levels the presets used to script by hand, and the level of the
    # one terminal cover the driver finds (E7 in char 0, 2, 5 and 7 has no
    # terminal cover)
    assert coxeter_number(parse_poly(_base_equation(kind, n), QQ)) == h
    pr = preset(kind, n=n, char=3 if kind == "E7" else 0)
    assert [r.level for r in components(pr).residuals()] == [h]


@pytest.mark.parametrize(
    "text",
    ["z^2 + x^3 + y^5 + x*y*z", "z^2 + x^2", "x*y*z"],
    ids=["not-quasi-homogeneous", "weight-sum-unfixed", "no-integer-h"],
)
def test_coxeter_number_rejects(text):
    assert coxeter_number(parse_poly(text, QQ)) is None


def test_only_e8_scripts_cover_unit_sets():
    for pr in preset_grid():
        want = {15: ((var("x", 5),),), 30: ((var("z", 15), var("x", 10)),)}
        assert pr.covers == (want if pr.kind == "E8" else {})


def _inventory(pr, covers):
    moved = SingularityPreset(
        pr.kind, pr.n, pr.char, pr.variant, pr.equation, covers, pr.expected_count, pr.max_level
    )
    return _component_inventory(pr, components(moved))


@pytest.mark.parametrize(
    "kind,n,char,count",
    [("A", 1, 0, 3), ("D", 2, 0, 8), ("E6", 6, 3, 12), ("E7", 7, 3, 10)],
)
def test_terminal_level_is_load_bearing(kind, n, char, count, monkeypatch):
    # no cover is terminal when no relation has a Coxeter number
    monkeypatch.setattr(driver, "coxeter_number", lambda f: None)
    pr = preset(kind, n=n, char=char)
    tree = run_driver(pr.system, pr.covers, pr.max_level)
    assert len(tree.components) == count != pr.expected_count


def test_e8_script_values_are_load_bearing(monkeypatch):
    pr = preset("E8", char=2)
    full = _inventory(pr, pr.covers)
    for level in (15, 30):
        covers = {k: v for k, v in pr.covers.items() if k != level}
        # still eight absorbed components, but other charts
        assert _inventory(pr, covers) != full
    monkeypatch.setattr(driver, "coxeter_number", lambda f: None)
    with pytest.raises(EngineError, match="product localization requires a terminal cover"):
        run_driver(pr.system, pr.covers, pr.max_level)


# -- component counts (sampled; the full grid runs in the acceptance suite) --


COUNT_SAMPLE = [
    ("A", 1, 0, ""),
    ("A", 4, 2, ""),
    ("A", 6, 7, ""),
    ("D", 2, 0, ""),
    ("D", 3, 3, ""),
    ("D", 4, 5, ""),
    ("E6", 6, 0, ""),
    ("E6", 6, 5, ""),
    ("E7", 7, 2, ""),
    ("E8", 8, 0, ""),
    ("E8", 8, 3, ""),
]


@pytest.mark.parametrize("kind,n,char,variant", COUNT_SAMPLE)
def test_component_count(kind, n, char, variant):
    pr = preset(kind, n=n, char=char, variant=variant)
    tree = components(pr)  # raises if the count or absorption is wrong
    assert len(tree.components) == pr.expected_count
    # emergence levels strictly ordered and positive
    ems = [c.emergence for c in tree.components]
    assert all(e >= 2 for e in ems)


def test_component_count_with_variant():
    for h in legal_variants("E8", 8, 2):
        pr = preset("E8", char=2, variant=h)
        assert len(components(pr).components) == 8


# -- golden reduction tables -------------------------------------------------


def test_golden_table_a_family():
    pr = preset("A", n=3, char=0)
    table = golden_table(pr)
    assert [l.level for l in table] == [2, 3, 4]
    assert table[-1].expected == "z1^4 + x3*y1"
    rep = verify_congruence_table(pr)
    assert rep["ok"] and not rep["discrepancies"]


@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
def test_golden_table_d_family(char):
    total = 0
    for n in (2, 3, 4):
        pr = preset("D", n=n, char=char)
        total += len(golden_table(pr))
        rep = verify_congruence_table(pr)
        assert rep["ok"], rep["discrepancies"]
    assert total >= 10


def test_golden_table_e8_has_full_ladder():
    pr = preset("E8", char=0)
    table = golden_table(pr)
    assert [l.level for l in table] == list(range(2, 31))
    rep = verify_congruence_table(pr)
    assert rep["ok"] and not rep["discrepancies"]


def test_golden_table_variant_reports_discrepancies():
    # a perturbed equation may break individual lines; the report flags
    # them without failing, and the component count stays correct
    pr = preset("E8", char=2, variant="x*y^3*z")
    rep = verify_congruence_table(pr)
    assert rep["ok"]  # no strict line may break
    for line in golden_table(pr):
        assert not line.strict
    assert len(components(pr).components) == 8


def test_d_witness_congruences_by_hand():
    """The pairwise witness lines recomputed from scratch, not via the
    table code: f_{2i+2} reduces to x_i^2*y2 once everything at or below
    the separating window vanishes except x_i itself, and f_{2j+2} keeps
    both the x_j^2*y2 and z_{j+1}^2 terms."""
    for n, i, j in ((3, 1, 2), (4, 1, 3), (4, 2, 3)):
        pr = preset("D", n=n, char=0)
        sys = pr.system
        low = {var("x", k) for k in range(j) if k != i}
        low |= {var("y", 0), var("y", 1)}
        low |= {var("z", k) for k in range(j + 1)}
        got = sys.derivative(2 * i + 2).reduce_mod_vars(frozenset(low))
        assert got == parse_poly(f"x{i}^2*y2", sys.field), (n, i, j)
        high = {var("x", k) for k in range(j)}
        high |= {var("y", 0), var("y", 1)}
        high |= {var("z", k) for k in range(j + 1)}
        got2 = sys.derivative(2 * j + 2).reduce_mod_vars(frozenset(high))
        assert got2 == parse_poly(f"x{j}^2*y2 + z{j+1}^2", sys.field), (n, i, j)


# -- non-inclusion -----------------------------------------------------------


@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
def test_e8_all_pairs_separated(char):
    pr = preset("E8", char=char)
    tree = components(pr)
    mat = noninclusion_matrix(pr, tree)
    assert mat["ok"]
    assert len(mat["pairs"]) == 56  # both directions of the 28 pairs


@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
def test_e8_first_pair_certificate_pinned(char):
    """The first two components are the delicate pair: they can only be
    separated by the forced-vanishing identity at level 8, whose target
    coordinate changes exactly in characteristic 2."""
    pr = preset("E8", char=char)
    tree = components(pr)
    mat = noninclusion_matrix(pr, tree)
    (verdict,) = [v for v in mat["pairs"] if (v.excluded, v.container) == (1, 0)]
    cert = verdict.certificate
    assert cert.kind == "forced-vanishing"
    assert cert.level == 8
    assert cert.target == (var("x", 4) if char == 2 else var("z", 5))


def test_pair_verdicts_describe_coordinates_by_name():
    pr = preset("E8", char=0)
    pairs = noninclusion_matrix(pr, components(pr))["pairs"]
    (first,) = [v for v in pairs if (v.excluded, v.container) == (1, 0)]
    cert = first.describe()["certificate"]
    assert cert["kind"] == "forced-vanishing" and cert["level"] == 8
    assert cert["target"] == "z5"
    assert cert["restriction"] == ["x0", "x1", "x2", "x3", "y0", "y1", "z0", "z1", "z2", "z4"]
    unit = next(v for v in pairs if v.certificate.kind == "unit-vs-zero").describe()
    assert unit["resolved"] is True
    assert unit["certificate"]["target"] is None and unit["certificate"]["restriction"] == []
    assert PairVerdict(2, 3, None).describe() == {
        "excluded": 2, "container": 3, "resolved": False, "certificate": None,
    }


def test_d_pairs_separated():
    for char in (0, 2):
        pr = preset("D", n=3, char=char)
        mat = noninclusion_matrix(pr, components(pr))
        assert mat["ok"]


def test_e6_pairs_separated():
    for char in (0, 3, 5, 7):
        pr = preset("E6", char=char)
        mat = noninclusion_matrix(pr, components(pr))
        assert mat["ok"]


# -- grid iteration ----------------------------------------------------------


def test_preset_grid_is_exhaustive():
    labels = [pr.label for pr in preset_grid()]
    assert len(labels) == len(set(labels))
    assert sum(1 for l in labels if l.startswith("A1")) == 5
    # every D and E preset lists its legal variants
    assert any("+" in l for l in labels)
