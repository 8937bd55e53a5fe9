"""Level-by-level component graph: construction, chain detection, export."""

import hashlib

import pytest

import arcjet.jetgraph as jetgraph
from arcjet.catalog import preset, preset_grid
from arcjet.driver import run_driver
from arcjet.hasse import JetSystem
from arcjet.jetgraph import (
    SCHEMA,
    _hit_masks,
    _level_pieces,
    build_graph,
    descriptor_contains,
    export,
    simple_branch_check,
)
from arcjet.algebra import Field, format_poly
from arcjet.oracle import (
    enumerate_fiber,
    probe_field,
    probe_primes,
    stratum_membership,
    truncate_stratum,
)
from arcjet.strata import closure_contains, reduction_of, rewrite_rules_for, root_stratum

from reference_oracle import point_assignment, transport_stratum


def graph_for(kind, char=0, M=10, **kw):
    pr = preset(kind, char=char, **kw)
    return build_graph(JetSystem(pr.equation), pr.covers, M)


def test_rank_one_single_chain():
    g = graph_for("A", n=1, M=10)
    assert g.schema == SCHEMA
    check = simple_branch_check(g)
    assert check["ok"]
    assert check["chain_count"] == 1
    assert check["threshold"] == 1  # nothing ever branches
    assert not g.flags


def test_rank_three_chains():
    g = graph_for("A", n=3, M=12)
    check = simple_branch_check(g)
    assert check["ok"] and check["chain_count"] == 3
    # chains are genuinely simple past the threshold: one child each
    for v in g.vertices:
        if v.level >= check["threshold"] and v.level < g.max_level:
            assert len(g.children(v.vid)) == 1


def test_every_vertex_connected():
    g = graph_for("D", n=2, char=2, M=12)
    levels = sorted({v.level for v in g.vertices})
    for v in g.vertices:
        if v.level > levels[0]:
            assert any(b == v.vid for _, b in g.edges), v
        if v.level < g.max_level and v.level in levels[:-1]:
            nxt = levels[levels.index(v.level) + 1]
            if nxt == v.level + 1:
                assert g.children(v.vid), v


def test_component_ids_propagate_to_window_top():
    g = graph_for("A", n=2, M=8)
    top = g.at_level(8)
    ids = sorted(i for v in top for i in v.component_ids)
    assert ids == [0, 1]


def test_descriptor_restriction_and_containment():
    pr = preset("A", n=1, char=0)
    sys = JetSystem(pr.equation)
    s = root_stratum()
    d6 = truncate_stratum(sys, s, 6)
    d3 = truncate_stratum(sys, d6, 3)
    assert d3.consumed == 3 and d3.rule is None
    assert all(v[1] <= 3 for v in d3.zero_vars)
    # the deeper descriptor lies inside (the closure of) the shallow one
    assert descriptor_contains(sys, d3, d3)


def test_a_not_contained_answer_rests_on_where_rewriting_stops():
    """E8 (char 0) at level 11, the level's charts picked by their units.
    Every closed constraint of the chart with unit x2 holds on the chart
    with unit y2: its coordinates vanish there, its first equations reduce
    to 0, and its last equation is, modulo the y2 chart's zero set, the y2
    chart's own equation ``2*z5*z6 + 5*y2^4*y3``.  That equation has no
    lead rule, so rewriting stops short of 0 and ``closure_contains``
    answers "not contained".  The answer is right: the closure drops the
    unit x2, so it is smaller than the zero set of the closed constraints.
    A more complete vanishing check, one that also counted an equation
    equal to one of the y2 chart's modulo its zero set, would answer
    "contained" here and merge two components: it must fail this test, not
    only the golden graph hash."""
    pr = preset("E8", char=0)
    sys = JetSystem(pr.equation)
    tree = run_driver(sys, pr.covers, max_level=11)
    charts = {
        format_poly(u): truncate_stratum(sys, tree.chart_of(comp).stratum, 11)
        for comp in tree.components
        for u in tree.chart_of(comp).stratum.units
    }
    b, a = charts["x2"], charts["y2"]
    red = reduction_of(sys, a)
    *head, last = b.equations
    assert b.zero_vars <= a.zero_vars
    assert all(red.vanishes(e) for e in head)
    own = last.reduce_mod_vars(a.zero_vars)
    assert own in a.equations and format_poly(own) == "2*z5*z6 + 5*y2^4*y3"
    assert rewrite_rules_for([own]) == () and not red.vanishes(last)
    assert not closure_contains(sys, b, a)


@pytest.mark.parametrize("kind,n,m", [("D", 2, 3), ("A", 1, 2)])
def test_probe_tests_points_in_probe_field(kind, n, m):
    """The merge probe's bitmasks of characteristic-0 pieces are those of the
    F_2 points on the pieces truncated and then moved into the probe field
    as whole strata (the reference route)."""
    pr = preset(kind, n=n, char=0)
    sys = JetSystem(pr.equation)
    target = probe_field(sys.field, 2)
    pts = enumerate_fiber(sys, 2, m)

    def reference(strata):
        truncs = [transport_stratum(truncate_stratum(sys, s, m), target) for s in strata]
        return {
            sum(1 << i for i, T in enumerate(truncs) if stratum_membership(point_assignment(pt, m), T))
            for pt in pts
        }

    # every nonempty leaf: together they cover the fiber
    tree = run_driver(sys, pr.covers, max_level=m)
    leaves = [nd.stratum for nd in tree.leaves() if nd.kind != "empty"]
    got = _hit_masks(sys, [truncate_stratum(sys, s, m) for s in leaves], 2, m)
    assert got == reference(leaves)
    assert 0 not in got
    # the graph's own pieces, each holding some point
    pieces = [d for _, d in _level_pieces(sys, pr.covers, m)]
    got = _hit_masks(sys, pieces, 2, m)
    assert got == reference(pieces)
    assert all(any(h >> i & 1 for h in got) for i in range(len(pieces)))


def test_probe_primes_follow_the_adjoined_i():
    assert probe_primes(Field(0)) == (2, 3)
    assert probe_primes(Field(0, i_adjoined=True)) == (3,)
    assert probe_primes(Field(7, i_adjoined=True)) == (7,)


def test_e6_char0_graph_probes_only_where_i_lives():
    """E6 (char 0) has i adjoined and is unsupported in characteristic 2, so
    the merge probe runs at p = 3 only and flags nothing."""
    pr = preset("E6", char=0)
    assert not build_graph(pr.system, pr.covers, 6).flags


# sha256 of the JSON export (plus a newline) of the level-6 graph of every
# preset, concatenated in preset_grid() order
GRID_LEVEL6_GRAPHS_SHA256 = "7b22ce2891917916d4003aa6a0f9eacaf0eabf3a4a96cb06d78827b9502b350f"


def test_level6_graphs_of_the_grid_are_unchanged():
    presets = list(preset_grid())
    assert len(presets) == 69
    digest = hashlib.sha256()
    for pr in presets:
        text = export(build_graph(pr.system, pr.covers, 6), "json") + "\n"
        digest.update(text.encode())
    assert digest.hexdigest() == GRID_LEVEL6_GRAPHS_SHA256


def test_level6_graphs_do_not_depend_on_the_order_they_are_built_in():
    """Reductions are shared by key across graphs and fields (the key of a
    stratum without equations is the same over Q, Q(i), F_p and F_p(i)):
    built once in grid order and then in reverse order, with the
    process-wide caches kept warm in between, every export is the same."""
    presets = list(preset_grid())
    forward = [export(build_graph(pr.system, pr.covers, 6), "json") for pr in presets]
    digest = hashlib.sha256("".join(text + "\n" for text in forward).encode())
    assert digest.hexdigest() == GRID_LEVEL6_GRAPHS_SHA256
    for i in reversed(range(len(presets))):
        pr = presets[i]
        assert export(build_graph(pr.system, pr.covers, 6), "json") == forward[i], pr.label


def full_matrix_pieces(sys, covers, m):
    """``_level_pieces`` with its keep rule over the full containment
    matrix, every ordered pair of candidates asked first, as the reference
    of the lazy keep rule; also the number of questions asked."""
    tree = run_driver(sys, covers, max_level=m)
    cands = [(c.index, truncate_stratum(sys, tree.chart_of(c).stratum, m)) for c in tree.components]
    for node in tree.leaves():
        if node.kind in ("stabilized", "residual") and node.absorbed_into is None:
            cands.append((None, truncate_stratum(sys, node.stratum, m)))
    inside = [
        [i != j and closure_contains(sys, b, a) for j, (_, b) in enumerate(cands)]
        for i, (_, a) in enumerate(cands)
    ]
    kept = [
        piece
        for i, piece in enumerate(cands)
        if not any(inside[i][j] and (j < i or not inside[j][i]) for j in range(len(cands)))
    ]
    return kept, len(cands) * (len(cands) - 1)


def test_the_lazy_keep_rule_keeps_the_full_matrix_pieces(monkeypatch):
    """At every level to 35 of E8 (char 0) and at level 6 of all 69
    presets, ``_level_pieces`` keeps the pieces of the full-matrix keep
    rule, in the same order; on E8 it asks fewer containment questions
    (883 of 1,016), each pair at most once."""
    asked = []

    def recording(sys, b, a):
        asked.append((id(b), id(a)))  # the level's candidates are alive while asked
        return closure_contains(sys, b, a)

    monkeypatch.setattr(jetgraph, "descriptor_contains", recording)
    pr = preset("E8", char=0)
    sys = JetSystem(pr.equation)
    full = 0
    for m in range(1, 36):
        want, n = full_matrix_pieces(sys, pr.covers, m)
        full += n
        before = len(asked)
        assert _level_pieces(sys, pr.covers, m) == want, m
        assert len(set(asked[before:])) == len(asked) - before, m
    assert 0 < len(asked) < full
    for pr in preset_grid():
        sys = JetSystem(pr.equation)
        assert _level_pieces(sys, pr.covers, 6) == full_matrix_pieces(sys, pr.covers, 6)[0], pr.label


# The simple-chain claim on the whole grid, each preset's graph built to its
# ``max_level``: one chain per component and no flag.  The threshold is a
# function of the kind alone, h - 1 for A_n and h + 1 for D and E, with h
# the Coxeter number (A_n: n; D4, D6, D8: 7, 11, 15; E6, E7, E8: 13, 19,
# 31); this is measured on the grid, not derived.
EXCEPTIONAL_COXETER = {"E6": 12, "E7": 18, "E8": 30}


def coxeter_of(pr):
    if pr.kind == "A":
        return pr.n + 1
    if pr.kind == "D":
        return 4 * pr.n - 2  # D_{2n}
    return EXCEPTIONAL_COXETER[pr.kind]


def expected_threshold(pr):
    return coxeter_of(pr) + (-1 if pr.kind == "A" else 1)


# sha256 of the JSON export of each preset's graph to its ``max_level``
GRID_MAX_LEVEL_GRAPHS_SHA256 = {
    "A1(char 0)": "12845413b7e55b177e617bfd69f2dc099702e06ab61b1562fc8a4a230bb816a9",
    "A1(char 2)": "afce017913e8be7bb636d5567f95f0b6e04881f21a528681b15b7323e4624571",
    "A1(char 3)": "12845413b7e55b177e617bfd69f2dc099702e06ab61b1562fc8a4a230bb816a9",
    "A1(char 5)": "12845413b7e55b177e617bfd69f2dc099702e06ab61b1562fc8a4a230bb816a9",
    "A1(char 7)": "12845413b7e55b177e617bfd69f2dc099702e06ab61b1562fc8a4a230bb816a9",
    "A2(char 0)": "b5805cbf2d0ec3f687912729189e69189094468a287bfd148433ee33b891aca3",
    "A2(char 2)": "7ccf11c52d9e93116823c0b7165f509bc5009c5bd7eda2d6b29371663d28a0f8",
    "A2(char 3)": "82b748d6b7af1eebf6f36f09714ab66a009be62c80277784f1617aed83a18b86",
    "A2(char 5)": "4392f7917073d24d86a766fc161d930ea3b3748a74357438b71ece0fa49f8fbc",
    "A2(char 7)": "b5805cbf2d0ec3f687912729189e69189094468a287bfd148433ee33b891aca3",
    "A3(char 0)": "28724745577827d8f6cd9aedc558b2f1d6f3aacfce603835d7e4b5b632bebd6b",
    "A3(char 2)": "f7079eddcf9f2e8920414257622ba276f3b21423e9872ee8f40b3718367f0546",
    "A3(char 3)": "fdbc1d1593666249daf94e58e9863538f951529cce100bb9450dad4a212edb0f",
    "A3(char 5)": "04b047c5c1c9760b1ea8eb7d2a350511ebb62eb339924b54ad33a3f765e1cb56",
    "A3(char 7)": "c33b100e0b83b68e734191789027ca147cac4072580d150092c067935bf3752a",
    "A4(char 0)": "40b0881f9a30a98fa00111bb8eb15543fe9c26344caac7d1bb99c0afb25bb719",
    "A4(char 2)": "de0afdae4939066770b55ac184c1a8ab3634a8fe36931b56e69e033e713522cf",
    "A4(char 3)": "352ecf4ab191fbab5f0f1f7128fd47ef434f3edcd95e29a08012e22a17f725e3",
    "A4(char 5)": "6b3954301014171d05f91bb39907202ef6889a151a5f67ab9b05e7a0c8a9fbea",
    "A4(char 7)": "34a579ae34f09aa49edfc25f9de5244d1624dff756751dc14d764b547cb91eef",
    "A5(char 0)": "56f46c85655cff68c3c17de84200be0b5633ddbce4886bd061cf8f47bcce6f56",
    "A5(char 2)": "5bf42ac3626a6bac2f1e8d29b2c503a0412928317178a5144e7973cc0d9b0fb4",
    "A5(char 3)": "e3e08bd3953e9af19f34b7435abf0a175aac28b25debd3612a634285bd94c568",
    "A5(char 5)": "f72d90056afc664010b127647f2bd9087ef0bce3338c7e731b151a528be85bef",
    "A5(char 7)": "c09b70759ed56eb06b58d3a73aa6773e7b15588657914c54a23256ef24be51a6",
    "A6(char 0)": "63f229564e893b9ca60fe1266c794c3e6652faaee8b78eb1631f13d5deb6b76f",
    "A6(char 2)": "2199b079e83480ddd04a092f5b112134942be4c94c3decc47b971c8b100177fd",
    "A6(char 3)": "34724d178233c0d07a40908ae2743c99eaa89e20a8bffef7746cc46ae9fc5262",
    "A6(char 5)": "29af9a2bc58fcbc8c7ca9f96a1d8151f0b30396aca758589d29b41662a41a4f7",
    "A6(char 7)": "8260f81db09d4c1a85615a140e6de32394645f4bd56cf65fdae8cd8727dd3fc5",
    "D4(char 0)": "a4159979fd969e64f2ab53efea6c466420c3a2b691698f2b0c1474a2c5ca8fb5",
    "D4(char 2)": "4258363aa17f22cdf49fd0ee88a6ab254d60eb8d1d3d86cc1f6fd39ce16dac15",
    "D4(char 3)": "98a401ed9e7809f9e342e537a6427acec11a71609c675310f69935ed0e1f128c",
    "D4(char 5)": "8e58c0b2e377a2e5fdb463e0072d4f8b3e009cce9e50ff10aa94abe831da4e2c",
    "D4(char 7)": "6c2ed6d6ab57942b940c1ec81ec031670188e0f61bca0f8fc2278d1e37927fd6",
    "D6(char 0)": "eee381b4c376283d842417b897e35e8c2dccc5919d3437defa7e340d5450631c",
    "D6(char 2)": "9ce7138b4b1589df0da8a801f161a73fffc010568f662abfc68239f2887f601f",
    "D6(char 2+x*y^2*z)": "68e541066178b150311a732238794424901c6191ef3708413a1f295b5d5f6ebf",
    "D6(char 3)": "b5ff4f9d1c614498a0c0673dc9e25de29e37bccdf069e30f918cde7df8258b08",
    "D6(char 5)": "f39716fe5e44d553a49657cb1a929569d51150d06da8a0b46602bf02a8939673",
    "D6(char 7)": "d75440827ef2cfd96fa018e7aab01fbab1ff35dafa562ba4696ea075cd3a9249",
    "D8(char 0)": "1c93a7acb4187c6855623012ada64763395d5e12b8200096b57e622f2d440e69",
    "D8(char 2)": "424c0871415f4645542f956a546e31a3817dc9a340f2425615f7f2ce301f356a",
    "D8(char 2+x*y^3*z)": "34d4f7312ff8005fd826a7c84db56aa3d3c77eb6430c2fd71fd649ca08ff76f3",
    "D8(char 2+x*y^2*z)": "d39e642005410691939b0c07ceab1f1612481cdd51b43b9bead6cb16431948f3",
    "D8(char 3)": "8fed2222db2ad855ba9cad98c5ae035c1c7fffa940cfbc3f28466c0e3f4b703a",
    "D8(char 5)": "c3861e48c2538b289a1eba54a6b410172147a9544fdde6203bf1180a8ae7a22f",
    "D8(char 7)": "a835264e8cf6a1bd042f26e282ef67b0bdab26140e13a407bb2feaeb88c2c1dd",
    "E6(char 0)": "d96ffb12fce444fd81d31e324ebcf2b6d0ffe5ec459eb4c88af963e4096305f2",
    "E6(char 3)": "4d0171b85ef51cba36179713279f8db37946f8db9373537f52549cecda5bfdd6",
    "E6(char 5)": "cd5cf4de1d135382fca6e1ec188ba9505ecaf4e64016bad0532f951e3bbf4ed9",
    "E6(char 7)": "b09fc72e328e9ebbd7e84fd7807f1b3afcf9737c9814259081e583320a359fd5",
    "E7(char 0)": "c9afdfdd449d94ef39b9ae94ce876df59a75cff2d360879b888b550d06c2b1b7",
    "E7(char 2)": "0cc352be64c55c1d807d103219fc6f9bbddfec3ab44518a6e520449aa0396ae3",
    "E7(char 3)": "fcd6bffc6b9fb5ab77f2c8fc5231052731514ada061acfb3b3f38f69acdeb2bb",
    "E7(char 5)": "e0707b12c01d6261d41889fd9f66b6d5fd9647f6ccb13cc8fe9b26c113904c9d",
    "E7(char 7)": "c9afdfdd449d94ef39b9ae94ce876df59a75cff2d360879b888b550d06c2b1b7",
    "E8(char 0)": "14ee31d683407765729cadd8c96092c26ed74b317bdd954c529abb6f2d56724c",
    "E8(char 2)": "b3ed1222018b07ba2c80516040090ccbdebaa7235ec1d46fb02f898d54724a2f",
    "E8(char 2+x*y^3*z)": "1f779b5e832e7012e1c247b7f25c27374c10c7c230967e9d0dcd701dc8618abd",
    "E8(char 2+x*y^2*z)": "6671390e87e32b90c7afd743c880de2d964ace097394adc7d8cf8709c11ef943",
    "E8(char 2+y^3*z)": "bf2ae5d6e98a67141f27289d44e1e26538ea9bd2ae85a29b1e9f04b4aa6c896e",
    "E8(char 2+x*y*z)": "d2d21eda93d3bde1091deadc1abb575bafc4f3386fc7d70836d480cdd80e77fe",
    "E8(char 3)": "b12c3636aa58dd9ec4a4442abe223d7b2f87536041b637039e4a220f045ef7e8",
    "E8(char 3+x^2*y^3)": "5d775cce1cd63b6ad05a8a97cf6b45b273d45de927cc0919695b9d849c5796c3",
    "E8(char 3+x^2*y^2)": "0ad476055cc524533db180590ff4bec70d75393f1087e698534c663206e6a5d9",
    "E8(char 5)": "cbf23d17f81350c2b5b8112539b6948f3b2df599d72665e380dace4cf15bd9c9",
    "E8(char 5+x*y^4)": "2a8e5614a2654a3f34d8174adeedca1471cdb0bf155c579f1bd18cdc6ac36709",
    "E8(char 7)": "69165494eca90e311c29f2e5ee9b7753e8603ac6a323426283118ab6525b941d",
}


def test_every_preset_settles_into_one_chain_per_component():
    problems = []
    labels = []
    for pr in preset_grid():
        labels.append(pr.label)
        g = build_graph(pr.system, pr.covers, pr.max_level)
        check = simple_branch_check(g)
        got = (check["chain_count"], check["threshold"], check["flags"])
        want = (pr.expected_count, expected_threshold(pr), [])
        if got != want:
            problems.append(f"{pr.label}: (chains, threshold, flags) {got}, expected {want}")
        digest = hashlib.sha256(export(g, "json").encode()).hexdigest()
        if digest != GRID_MAX_LEVEL_GRAPHS_SHA256.get(pr.label):
            problems.append(f"{pr.label}: the graph export changed")
    assert labels == list(GRID_MAX_LEVEL_GRAPHS_SHA256)
    assert not problems, "\n".join(problems)


# The flags of the A3 (char 0) graph to level 6 when every piece is given
# the same point set: each level with two or more pieces flags each pair.
# (Level 6 is past the probe budget.)
SHARED = "are syntactically distinct but share every tested F_p point set"
A3_LEVEL6_PROBE_FLAGS = (
    "level 2: pieces 0 and 1 " + SHARED,
    "level 3: pieces 0 and 1 " + SHARED,
    "level 3: pieces 0 and 2 " + SHARED,
    "level 3: pieces 1 and 2 " + SHARED,
    "level 4: pieces 0 and 1 " + SHARED,
    "level 4: pieces 0 and 2 " + SHARED,
    "level 4: pieces 1 and 2 " + SHARED,
    "level 5: pieces 0 and 1 " + SHARED,
    "level 5: pieces 0 and 2 " + SHARED,
    "level 5: pieces 1 and 2 " + SHARED,
)


def test_flag_order_is_pinned(monkeypatch):
    """No preset's graph up to level 12 raises a flag, so the golden hashes
    do not cover the order of flags; pin it on forced flags."""
    pr = preset("A", n=3, char=0)
    monkeypatch.setattr(jetgraph, "_hit_masks", lambda sys, pieces, p, m: {0})
    assert build_graph(pr.system, pr.covers, 6).flags == A3_LEVEL6_PROBE_FLAGS
    # with no containment at all every level also flags each piece without
    # a truncation target: a level's edge flags come before its probe flags
    levels = {m: _level_pieces(pr.system, pr.covers, m) for m in range(1, 7)}
    monkeypatch.setattr(jetgraph, "_level_pieces", lambda sys, covers, m: levels[m])
    monkeypatch.setattr(jetgraph, "descriptor_contains", lambda sys, b, a: False)
    g = build_graph(pr.system, pr.covers, 6)
    assert not g.edges
    expected = []
    for m in range(2, 7):
        expected += [
            f"level {m} piece {i} has no truncation target at {m - 1}"
            for i in range(len(levels[m]))
        ]
        expected += [f for f in A3_LEVEL6_PROBE_FLAGS if f.startswith(f"level {m}:")]
    assert [len(levels[m]) for m in range(1, 7)] == [1, 2, 3, 3, 3, 3]
    assert g.flags == tuple(expected)


def test_export_deterministic():
    a = export(graph_for("A", n=2, M=8), "json")
    b = export(graph_for("A", n=2, M=8), "json")
    assert a == b


def test_dot_output_shape():
    g = graph_for("A", n=1, M=4)
    dot = export(g, "dot")
    assert dot.startswith("digraph jet_components {")
    assert "->" in dot
    assert dot.endswith("}\n")


def test_bad_format_rejected():
    g = graph_for("A", n=1, M=4)
    with pytest.raises(ValueError):
        export(g, "svg")
