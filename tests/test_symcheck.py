"""Fixed-count conditions, character comparison, and combined tightness."""

import pytest

from conftest import (
    c2_fixed_edge,
    c3_wheel,
    d2_loop_fixed_by_both_mirrors,
    d3_flower,
    mirror_fixed_vertex,
    mirror_pair,
)
from slcrigid import (
    ActionError,
    GroupSpec,
    Loop,
    SymmetricGraph,
    base_graph,
    character_vectors,
    classify,
    check_tight,
    default_bases,
    fixed_count_check,
    fixed_counts,
    generate_random,
    is_gamma_tight,
    is_tight,
    subset_audit,
)
from slcrigid import document, symcheck, symgraph
from slcrigid.selftest import negative_control


def test_fixed_edge_triangle_fails_half_turn_counts():
    g = c2_fixed_edge()
    fc = fixed_count_check(g)
    assert not fc.passed
    assert fc.first_failure == "half-turn counts"
    cond = fc.conditions[0]
    assert cond.detail == "v=1, e=1, l=1"


def test_fixed_edge_triangle_characters_disagree():
    g = c2_fixed_edge()
    ch = character_vectors(g)
    assert ch.labels == ("id", "c2")
    assert ch.chi_rows == (6, 0)
    assert ch.chi_cols == (6.0, -2.0)
    assert ch.equal_per_element == (True, False)
    assert not ch.equal


def test_fixed_edge_triangle_is_count_tight_but_not_tight():
    g = c2_fixed_edge()
    report = check_tight(g)
    assert report.sparsity.verdict == "sparse-and-tight"
    assert not report.tight
    assert not is_tight(g)


def test_gamma_tight_alias():
    assert is_gamma_tight is is_tight


def test_wheel_fails_threefold_fixed_counts():
    g = c3_wheel()
    fc = fixed_count_check(g)
    assert fc.first_failure == "c3: no fixed vertices, edges or loops"


def test_wheel_characters():
    g = c3_wheel()
    ch = character_vectors(g)
    assert ch.labels == ("id", "c3", "c3^2")
    assert ch.chi_rows == (9, 0, 0)
    assert abs(ch.chi_cols[0] - 8.0) < 1e-9
    assert abs(ch.chi_cols[1] + 1.0) < 1e-9
    assert abs(ch.chi_cols[2] + 1.0) < 1e-9
    assert ch.equal_per_element == (False, False, False)


def test_wheel_is_not_tight_for_either_reason():
    report = check_tight(c3_wheel())
    assert report.sparsity.verdict == "not-sparse"
    assert not report.fixed_count.passed
    assert not report.tight


def test_mirror_pair_fails_reflection_balance():
    g = mirror_pair()
    fc = fixed_count_check(g)
    assert fc.first_failure == "s: fixed edges + plus loops = minus loops"


def test_mirror_fixed_vertex_is_tight_with_equal_characters():
    g = mirror_fixed_vertex()
    report = check_tight(g)
    assert report.tight
    assert report.character.equal
    assert is_tight(g)


def test_negative_control_is_count_tight_only():
    g = negative_control()
    report = check_tight(g)
    assert report.sparsity.tight
    assert not report.fixed_count.passed
    assert not report.character.equal
    assert not report.tight


def test_looped_cycle_characters_are_all_zero_off_identity():
    g = base_graph("lc5")
    ch = character_vectors(g)
    assert ch.chi_rows == (10, 0, 0, 0, 0)
    assert all(abs(c) < 1e-9 for c in ch.chi_cols[1:])
    assert ch.equal


def test_column_characters_carry_no_float_noise():
    ch = character_vectors(generate_random("c4", 5, 1).graph)
    assert ch.equal
    assert ch.chi_cols == (42.0, 0.0, -2.0, 0.0)
    assert ch.deltas == (0.0,) * 4
    # irrational angles with no fixed vertex report 0.0, not -0.0
    for name in ("c3", "c5", "c6"):
        for seed in range(3):
            graph = generate_random(name, 6, seed).graph
            text = document.dumps(document.tight_report_to_dict(check_tight(graph)))
            assert "-0.0" not in text, (name, seed)


def test_every_default_base_is_tight():
    for name in ["c1", "c2", "c3", "c4", "c5", "c6", "cs"]:
        group = GroupSpec.from_name(name)
        for label in default_bases(group):
            g = base_graph(label)
            assert is_tight(g), (name, label)
            assert character_vectors(g).equal, (name, label)


def test_check_tight_counts_fixed_elements_once(monkeypatch):
    calls = []
    original = symcheck.fixed_counts

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(symcheck, "fixed_counts", counting)
    graphs = [c2_fixed_edge(), mirror_fixed_vertex(), d3_flower(), base_graph("lc5")]
    reports = [check_tight(g) for g in graphs]
    assert calls == graphs
    for g, report in zip(graphs, reports):
        assert report.fixed_count == fixed_count_check(g)
        assert report.character == character_vectors(g)


def test_check_tight_subset_method_agrees():
    # the pebble game decides sparsity; the subset audit is the reference
    for g in [c2_fixed_edge(), mirror_fixed_vertex(), base_graph("lc3")]:
        audit = subset_audit(g.num_vertices, g.edges, g.loop_vertices)
        assert check_tight(g).tight == (audit.tight and fixed_count_check(g).passed)


def test_check_tight_rejects_invalid_action():
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        2,
        (),
        (Loop(0, 0), Loop(1, 0), Loop(2, 1), Loop(3, 1)),
        rotation_vertex_perm=(1, 0),
        rotation_loop_perm={0: 1, 1: 0, 2: 3, 3: 2},
    )
    with pytest.raises(ActionError):
        check_tight(g)


def test_the_action_is_validated_once_per_graph(monkeypatch):
    validated = []
    original = symgraph.validate_action

    def recording(g):
        validated.append(g)
        return original(g)

    monkeypatch.setattr(symgraph, "validate_action", recording)
    text = document.serialize_graph(generate_random("c3", steps=10, seed=0).graph)
    validated.clear()
    g, _ = document.parse_graph(text)
    check_tight(g)
    classify(g, trials=2)
    assert validated == [g]
    assert g.validation.ok
    # an invalid action raises on every call, from the one report
    bad = SymmetricGraph(
        GroupSpec("cyclic", 2),
        2,
        ((0, 1),),
        (Loop(0, 0), Loop(1, 1)),
        rotation_vertex_perm=(0, 1),
        rotation_loop_perm={0: 1, 1: 0},
    )
    for call in (check_tight, classify, symcheck.require_valid_action):
        with pytest.raises(ActionError, match="sends loop 0 at 0 to loop 1 at 1"):
            call(bad)
    assert validated == [g, bad]


def test_trivial_group_has_no_extra_conditions():
    g = SymmetricGraph(
        GroupSpec("cyclic", 1), 1, (), (Loop(0, 0), Loop(1, 0))
    )
    fc = fixed_count_check(g)
    assert fc.passed
    assert fc.first_failure is None
    assert is_tight(g)


def _counts(graph, label):
    c = fixed_counts(graph).by_label(label)
    return (c.vertices, c.edges, c.loops, c.loops_plus, c.loops_minus)


def test_mirror_pair_characters():
    g = mirror_pair()
    ch = character_vectors(g)
    assert ch.labels == ("id", "s")
    assert ch.chi_rows == (5, 1)
    assert ch.equal_per_element == (False, False)
    assert _counts(g, "id") == (2, 1, 4, None, None)
    assert _counts(g, "s") == (0, 1, 0, 0, 0)


def test_mirror_fixed_vertex_characters():
    ch = character_vectors(mirror_fixed_vertex())
    assert ch.chi_rows == (2, 0)
    assert ch.equal_per_element == (True, True)


def test_d3_flower_characters():
    g = d3_flower()
    ch = character_vectors(g)
    assert ch.labels == ("id", "c3", "c3^2", "s", "c3^1*s", "c3^2*s")
    assert ch.chi_rows == (24, 0, 0, 2, 2, 2)
    assert ch.equal_per_element == (False, True, True, False, False, False)
    for label in ch.labels[3:]:
        assert _counts(g, label) == (1, 1, 1, 1, 0)


def test_loop_fixed_by_both_d2_mirrors_has_opposite_signs():
    g = d2_loop_fixed_by_both_mirrors()
    ch = character_vectors(g)
    assert ch.labels == ("id", "c2", "s", "c2^1*s")
    assert ch.chi_rows == (1, -1, 1, -1)
    assert _counts(g, "s") == (1, 0, 1, 1, 0)
    assert _counts(g, "c2^1*s") == (1, 0, 1, 0, 1)


def test_loop_fixed_by_a_threefold_rotation_has_no_row_character():
    g = SymmetricGraph(
        GroupSpec("cyclic", 3),
        1,
        (),
        (Loop(0, 0),),
        rotation_vertex_perm=(0,),
        rotation_loop_perm={0: 0},
    )
    with pytest.raises(ActionError, match="loop 0 fixed by c3, which has no fixed direction"):
        character_vectors(g)
