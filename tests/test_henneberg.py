"""Extension moves, base recognition, decomposition, and round trips."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest

from conftest import action_tuples, c2_fixed_edge, c3_wheel, mirror_fixed_vertex, ring_with_spokes
from slcrigid import (
    ComponentTrace,
    CycleEdge,
    Decomposition,
    GroupSpec,
    InvalidMoveError,
    NotTightError,
    OneEdgeSplit,
    OneLoopSplit,
    RangeError,
    ReductionDeadEnd,
    SchemaError,
    SymmetricGraph,
    Zero2Edges,
    ZeroEdgeLoop,
    apply_extension,
    base_graph,
    base_union_labels,
    certified_group,
    classify,
    decompose,
    default_bases,
    enumerate_reductions,
    fixed_count_check,
    generate_random,
    is_base_graph,
    is_tight,
    replay,
    subset_audit,
    symmetric_components,
    verify_decomposition,
)
from slcrigid import document, henneberg, sparsity, symcheck, symgraph
from slcrigid.sparsity import pebble_games
from slcrigid.symgraph import Loop, _union_find, induced_subgraph, orbits, relabel

SRC = Path(__file__).resolve().parents[1] / "src"


BASE_LABELS = [
    "pinned1",
    "pinned2",
    "pinned3",
    "p1_fixed",
    "p1_swap",
    "lc3",
    "lc5",
    "lc6",
    "lc6x2",
    "lc9x3",
]


def test_base_labels_round_trip():
    for label in BASE_LABELS:
        g = base_graph(label)
        assert is_base_graph(g) == label, label
        assert is_tight(g), label


def test_split_looped_cycle_shape():
    g = base_graph("lc6x2")
    # two disjoint looped triangles swapped by the rotation
    assert g.num_vertices == 6
    assert g.edges == ((0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (3, 5))
    assert len(g.loops) == 6


def test_bad_base_labels_rejected():
    for label in ["lc2", "lc6x4", "lc4x2", "pinned0", "mystery", "lcx", "lc"]:
        with pytest.raises(SchemaError):
            base_graph(label)


def test_non_base_graphs_are_not_recognized():
    assert is_base_graph(c2_fixed_edge()) is None
    assert is_base_graph(ring_with_spokes(5)) is None
    g = generate_random("c2", steps=2, seed=0).graph
    assert is_base_graph(g) is None


def test_base_union_labels():
    assert base_union_labels(base_graph("lc3")) == ("lc3",)
    assert base_union_labels(c2_fixed_edge()) is None


def test_default_bases_per_group():
    assert default_bases(GroupSpec.from_name("c1")) == ("pinned1",)
    assert "p1_fixed" in default_bases(GroupSpec.from_name("c2"))
    assert "lc3" in default_bases(GroupSpec.from_name("c3"))
    assert "p1_swap" in default_bases(GroupSpec.from_name("c4"))
    assert default_bases(GroupSpec.from_name("cs")) == ()


def test_certified_groups_are_half_turn_and_odd_rotations():
    flags = {
        n: certified_group(GroupSpec.from_name(n))
        for n in ["c1", "c2", "c3", "c4", "c5", "c6", "cs", "d3"]
    }
    assert flags == {
        "c1": True,
        "c2": True,
        "c3": True,
        "c4": False,
        "c5": True,
        "c6": False,
        "cs": False,
        "d3": False,
    }


def test_vertex_addition_adds_an_orbit():
    g = base_graph("lc3")
    h = apply_extension(g, Zero2Edges(0, 1))
    assert h.num_vertices == 6
    assert len(h.edges) == len(g.edges) + 6
    assert is_tight(h)


def test_vertex_addition_with_loop():
    g = base_graph("p1_fixed")
    h = apply_extension(g, ZeroEdgeLoop(0))
    assert h.num_vertices == 3
    assert len(h.loops) == len(g.loops) + 2
    assert len(h.edges) == 2
    assert is_tight(h)


def test_edge_split_replaces_an_orbit():
    g = base_graph("lc3")
    h = apply_extension(g, OneEdgeSplit(0, 1, 2))
    assert h.num_vertices == 6
    assert is_tight(h)
    # the split edge orbit is gone, new vertices join its ends
    assert (0, 1) not in h.edges


def test_loop_split_moves_a_loop_orbit_to_the_new_vertices():
    g = base_graph("pinned2")
    h = apply_extension(g, OneLoopSplit(0, 1))
    assert h.num_vertices == 4
    assert is_tight(h)
    # the split loop's orbit {0, 2} is consumed; the new vertices carry
    # fresh loops and connect to the old vertices
    assert set(h.loop_ids).isdisjoint({0, 2})
    assert [(l.id, l.vertex) for l in h.loops] == [
        (1, 0),
        (3, 1),
        (4, 2),
        (5, 3),
    ]
    assert len(h.edges) == 4


def test_a_cycle_edge_adds_an_orbit_spanned_by_cycles():
    # pinned5 with a ring orbit spoked to it is ring_with_spokes(5), the
    # two orbits in the other order
    h = apply_extension(base_graph("pinned5"), CycleEdge(0, 1))
    ring = ring_with_spokes(5)
    assert relabel(h, [5, 6, 7, 8, 9, 0, 1, 2, 3, 4]) == ring
    # step 4 is the inverse rotation: the same ring
    assert apply_extension(base_graph("pinned5"), CycleEdge(0, 4)) == h
    # in c6, step 2 has order 3: two triangles, joined to lc6 by spokes
    g = apply_extension(base_graph("lc6"), CycleEdge(2, 2))
    assert is_tight(g)
    assert [e for e in g.edges if min(e) >= 6] == [(6, 8), (6, 10), (7, 9), (7, 11), (8, 10), (9, 11)]
    assert [e for e in g.edges if min(e) < 6 <= max(e)] == [(0, 10), (1, 11), (2, 6), (3, 7), (4, 8), (5, 9)]


def test_a_cycle_edge_needs_a_step_of_order_three_or_more():
    for label, step in [("p1_fixed", 1), ("pinned2", 1), ("pinned4", 2), ("pinned5", 0), ("lc3", 3), ("lc3", -1)]:
        with pytest.raises(InvalidMoveError, match="order 3 or more"):
            apply_extension(base_graph(label), CycleEdge(0, step))
    assert is_tight(apply_extension(base_graph("pinned4"), CycleEdge(0, 3)))
    # a step whose element fixes v1 would make each cycle a wheel around it
    for g in (base_graph("p1_swap"), c3_wheel()):
        with pytest.raises(InvalidMoveError, match="fixes v1"):
            apply_extension(g, CycleEdge(0, 1))


def test_invalid_moves_are_rejected():
    g = base_graph("lc3")
    with pytest.raises(InvalidMoveError):
        apply_extension(g, Zero2Edges(0, 0))
    with pytest.raises(InvalidMoveError):
        apply_extension(g, Zero2Edges(0, 99))
    with pytest.raises(InvalidMoveError):
        apply_extension(g, OneEdgeSplit(0, 1, 1))
    with pytest.raises(InvalidMoveError):
        apply_extension(base_graph("lc5"), OneEdgeSplit(0, 2, 1))  # not an edge
    with pytest.raises(InvalidMoveError):
        apply_extension(g, OneLoopSplit(99, 0))


def _open_loop_orbit():
    """A c3 graph whose rotation cycles four loop ids: the orbit {0, 1, 2}
    that the group gives loop 0 is not closed under the rotation."""
    return SymmetricGraph(
        GroupSpec("cyclic", 3),
        3,
        (),
        tuple(Loop(i, i % 3) for i in range(4)),
        rotation_vertex_perm=(1, 2, 0),
        rotation_loop_perm={0: 1, 1: 2, 2: 3, 3: 0},
    )


@pytest.mark.parametrize(
    "graph, move, error, message",
    [
        ("pinned2", Zero2Edges(0.0, 1), InvalidMoveError, "v1 must be an integer, not 0.0"),
        ("pinned2", ZeroEdgeLoop("0"), InvalidMoveError, "v1 must be an integer, not '0'"),
        ("pinned5", CycleEdge(0, 1.0), InvalidMoveError, "step must be an integer, not 1.0"),
        ("lc3", OneEdgeSplit(0, 1, True), InvalidMoveError, "z0 must be an integer, not True"),
        ("pinned2", OneLoopSplit(0, False), InvalidMoveError, "y0 must be an integer, not False"),
        ("pinned2", OneLoopSplit(None, 1), InvalidMoveError, "loop_id must be an integer, not None"),
        ("lc3", Zero2Edges(0, 99), InvalidMoveError, "v2 99 is not a vertex of the graph"),
        ("lc3", ZeroEdgeLoop(-1), InvalidMoveError, "v1 -1 is not a vertex of the graph"),
        ("lc3", CycleEdge(3, 1), InvalidMoveError, "v1 3 is not a vertex of the graph"),
        ("lc3", OneEdgeSplit(0, 1, 3), InvalidMoveError, "z0 3 is not a vertex of the graph"),
        ("pinned2", OneLoopSplit(0, 2), InvalidMoveError, "y0 2 is not a vertex of the graph"),
        ("lc3", Zero2Edges(1, 1), InvalidMoveError, "v1 and v2 must be distinct vertices"),
        ("pinned4", CycleEdge(0, 2), InvalidMoveError, "step 2 does not name a group element of order 3 or more"),
        ("lc3", CycleEdge(0, 0), InvalidMoveError, "step 0 does not name a group element of order 3 or more"),
        ("lc3", CycleEdge(0, 3), InvalidMoveError, "step 3 does not name a group element of order 3 or more"),
        ("p1_swap", CycleEdge(0, 1), InvalidMoveError, "the step's element fixes v1 0"),
        ("lc5", OneEdgeSplit(0, 2, 1), InvalidMoveError, "(0, 2) is not an edge"),
        ("lc3", OneEdgeSplit(1, 1, 0), InvalidMoveError, "(1, 1) is not an edge"),
        (c2_fixed_edge, OneEdgeSplit(2, 1, 0), InvalidMoveError, "the split edge's orbit must have one edge per group element"),
        ("lc3", OneEdgeSplit(0, 1, 1), InvalidMoveError, "z0 must differ from the split edge's ends"),
        ("lc3", OneEdgeSplit(0, 1, 0), InvalidMoveError, "z0 must differ from the split edge's ends"),
        ("lc3", OneLoopSplit(99, 0), InvalidMoveError, "no loop with id 99"),
        ("pinned2", OneLoopSplit(2, 1), InvalidMoveError, "y0 must differ from the loop's vertex"),
        ("p1_fixed", OneLoopSplit(0, 0), InvalidMoveError, "y0 must differ from the loop's vertex"),
        (c2_fixed_edge, OneLoopSplit(0, 1), InvalidMoveError, "the split loop's orbit must have one loop per group element"),
        (_open_loop_orbit, OneLoopSplit(0, 1), RangeError, "rotation_loop_perm is not a permutation of the loop ids"),
        ("lc3", "zero_two_edges", InvalidMoveError, "unknown move 'zero_two_edges'"),
    ],
)
def test_each_refusal_of_a_move_names_its_cause(graph, move, error, message):
    g = base_graph(graph) if isinstance(graph, str) else graph()
    with pytest.raises(error) as info:
        apply_extension(g, move)
    assert (type(info.value), str(info.value)) == (error, message)


def test_move_and_step_values_must_be_integers():
    g = base_graph("pinned2")
    for move in [
        Zero2Edges(0.0, 1),
        Zero2Edges(0, True),
        ZeroEdgeLoop(True),
        ZeroEdgeLoop("0"),
        OneEdgeSplit(0, 1, 2.0),
        OneLoopSplit(True, 1),
        OneLoopSplit(0.0, 1),
        OneLoopSplit(0, False),
        CycleEdge(True, 1),
        CycleEdge(0, 1.0),
    ]:
        with pytest.raises(InvalidMoveError, match="must be an integer"):
            apply_extension(g, move)
    for steps in [2.5, True, "3", None]:
        with pytest.raises(RangeError, match="steps must be an integer"):
            generate_random("c2", steps=steps)


def test_a_split_loop_orbit_must_be_closed_under_the_generators():
    # the rotation cycles four loop ids, so its cube is no identity: the
    # orbit {0, 1, 2} the three elements give loop 0 is not closed, and
    # deleting it leaves the rotation's loop map no permutation
    g = _open_loop_orbit()
    with pytest.raises(RangeError, match="rotation_loop_perm is not a permutation"):
        apply_extension(g, OneLoopSplit(0, 1))
    # raised at the move, not at the build, before a later move reads the
    # deleted ids
    trace = ComponentTrace("", g, (OneLoopSplit(0, 1), OneLoopSplit(3, 1)), (), ())
    with pytest.raises(RangeError, match="rotation_loop_perm is not a permutation"):
        replay(trace)


def test_loop_split_requires_full_orbit():
    # the fixed loop of p1_fixed sits in an orbit of size 1, not 2
    g = base_graph("p1_fixed")
    fixed = [l for l in g.loops if l.vertex == 0][0]
    with pytest.raises(InvalidMoveError):
        apply_extension(g, OneLoopSplit(fixed.id, 0))


def test_enumerate_reductions_requires_tight_input():
    with pytest.raises(NotTightError):
        enumerate_reductions(c2_fixed_edge())


def test_reductions_undo_an_extension():
    g = base_graph("lc3")
    h = apply_extension(g, Zero2Edges(0, 1))
    reds = enumerate_reductions(h)
    assert reds
    assert any(r.graph == g for r in reds)


def test_generate_random_is_deterministic():
    a = generate_random("c3", steps=4, seed=9)
    b = generate_random("c3", steps=4, seed=9)
    assert a.graph == b.graph
    assert a.moves == b.moves
    assert a.base_label == b.base_label


def test_generate_random_rejects_bad_arguments():
    with pytest.raises(Exception):
        generate_random("cs", steps=2, seed=0)
    with pytest.raises(SchemaError):
        generate_random("c2", steps=2, seed=0, base="lc3")


def test_generated_graphs_are_tight():
    for name in ["c1", "c2", "c3", "c4", "c5", "c6"]:
        for seed in range(3):
            gen = generate_random(name, steps=3, seed=seed)
            assert is_tight(gen.graph), (name, seed)


def test_decompose_round_trip_certified_groups():
    # certified groups decompose to a single base with one trace move per
    # generation move, and the replayed trace rebuilds the same graph
    for name in ["c1", "c2", "c3", "c5"]:
        for seed in range(4):
            gen = generate_random(name, steps=4, seed=seed)
            dec = decompose(gen.graph)
            assert dec.certified == certified_group(gen.graph.group)
            assert len(dec.components) == 1
            trace = dec.components[0]
            assert "+" not in trace.base_label
            assert len(trace.moves) == len(gen.moves), (name, seed)
            assert verify_decomposition(gen.graph, dec)


def test_decompose_uncertified_groups_still_verifies():
    for name in ["c4", "c6"]:
        for seed in range(3):
            gen = generate_random(name, steps=3, seed=seed)
            dec = decompose(gen.graph)
            assert not dec.certified
            assert verify_decomposition(gen.graph, dec)


def test_decompose_requires_tight_input():
    with pytest.raises(NotTightError):
        decompose(c2_fixed_edge())


def test_decompose_dead_end_reports_the_stuck_graph():
    # cs is not a certified group, and no base is defined for it: its one
    # mirror-fixed vertex is no free orbit, so it has no reduction at all
    g = mirror_fixed_vertex()
    assert is_tight(g) and not certified_group(g.group)
    with pytest.raises(ReductionDeadEnd) as exc:
        decompose(g)
    assert exc.value.graph == g
    assert "admits no tightness-preserving reduction" in str(exc.value)


def test_replay_rebuilds_the_component():
    gen = generate_random("c2", steps=3, seed=5)
    dec = decompose(gen.graph)
    trace = dec.components[0]
    rebuilt = replay(trace)
    assert rebuilt.num_vertices == gen.graph.num_vertices
    assert is_tight(rebuilt)


def test_verify_decomposition_rejects_tampering():
    gen = generate_random("c2", steps=3, seed=1)
    dec = decompose(gen.graph)
    other = generate_random("c2", steps=3, seed=2)
    assert not verify_decomposition(other.graph, dec)


def test_verify_decomposition_rejects_a_base_its_label_does_not_name():
    g = generate_random("c3", 6, 0).graph
    identity = tuple(range(g.num_vertices))
    fake = ComponentTrace("lc3", g, (), identity, tuple((i, i) for i in g.loop_ids))
    # it replays to g itself, but g is no lc3
    assert not verify_decomposition(g, Decomposition(g, (fake,), True))
    assert verify_decomposition(g, decompose(g))


def test_verify_decomposition_is_false_when_a_move_does_not_apply():
    gen = generate_random("c2", 3, 1)
    dec = decompose(gen.graph)
    [trace] = dec.components
    bad = dataclasses.replace(trace, moves=(Zero2Edges(0, 99), *trace.moves[1:]))
    assert not verify_decomposition(gen.graph, dataclasses.replace(dec, components=(bad,)))


def test_verify_decomposition_is_false_on_each_tampered_field():
    # every tampering below gives False and raises nothing, also where the
    # replay is built straight in the component's labels
    gen = generate_random("c2", 6, 0)
    dec = decompose(gen.graph)
    [trace] = dec.components
    emb, loops = trace.embedding, trace.loop_embedding
    assert verify_decomposition(gen.graph, dec) and loops
    tampered = [
        dict(embedding=(emb[0], *emb[:-1])),  # a repeated entry
        dict(embedding=(emb[1], emb[0], *emb[2:])),  # two entries swapped
        dict(loop_embedding=tuple((i + 1, j) for i, j in loops)),  # replayed ids shifted
        dict(loop_embedding=tuple((i, j + 1) for i, j in loops)),  # component ids shifted
        dict(loop_embedding=tuple((i, loops[0][1]) for i, _ in loops)),  # not a bijection
        dict(loop_embedding=loops[1:]),  # not a bijection on the replayed ids
        dict(moves=trace.moves[:-1]),  # the last move dropped
        dict(base_label="p1_fixed"),
        dict(base_label=f"{trace.base_label}+{trace.base_label}"),
    ]
    for k, move in enumerate(trace.moves):
        for field in dataclasses.fields(move):
            for bad in (10**6, True, "a"):
                moved = dataclasses.replace(move, **{field.name: bad})
                tampered.append(dict(moves=(*trace.moves[:k], moved, *trace.moves[k + 1 :])))
    for change in tampered:
        bad = dataclasses.replace(dec, components=(dataclasses.replace(trace, **change),))
        assert verify_decomposition(gen.graph, bad) is False, change


def test_zero_step_generation_is_the_base():
    gen = generate_random("c3", steps=0, seed=0)
    assert is_base_graph(gen.graph) == gen.base_label
    dec = decompose(gen.graph)
    assert dec.total_moves == 0


def test_split_cycle_bases_decompose_trivially():
    for label in ["lc6x2", "lc9x3"]:
        dec = decompose(base_graph(label))
        assert dec.total_moves == 0
        assert dec.components[0].base_label == label


def _dense_count(g):
    """Dense orbits counted from scratch: orbits with two loops per vertex,
    or with an edge whose ends both lie in the orbit."""
    rep = {v: orb[0] for orb in orbits(g).vertices for v in orb}
    looped = Counter(l.vertex for l in g.loops)
    dense = {rep[v] for v, k in looped.items() if k >= 2}
    return len(dense | {rep[a] for a, b in g.edges if rep[a] == rep[b]})


def _counts(g):
    """(symmetric components, dense orbits), both from scratch."""
    return len(symmetric_components(g)), _dense_count(g)


def _key(dense, red):
    """The walk's key for a reduction, counted from scratch: the symmetric
    components of the reduced graph, and whether it has more dense orbits
    than ``dense``, those of the graph it reduces."""
    return len(symmetric_components(red.graph)), _dense_count(red.graph) > dense


def _single_core(g):
    """Whether the tight graph g has a single core, from scratch: in a fresh
    (2,0) pebble game, what the orbit of v reaches is the least symmetric
    tight set holding v, and the core is single when the smallest of these
    lies in all the others."""
    _, game = pebble_games(g.num_vertices, g.edges, g.loop_vertices)
    closures = {frozenset(game.reach(orb)) for orb in orbits(g).vertices}
    least = min(closures, key=len)
    return all(least <= c for c in closures)


def _least_tight_sets(g):
    """The least symmetric tight vertex sets of g, by the definition: every
    union of vertex orbits is counted (a few orbits only)."""
    orbs = orbits(g).vertices
    tight = []
    for mask in range(1, 1 << len(orbs)):
        verts = {v for i, orb in enumerate(orbs) if mask >> i & 1 for v in orb}
        rows = sum(a in verts and b in verts for a, b in g.edges)
        rows += sum(l.vertex in verts for l in g.loops)
        if rows == 2 * len(verts):
            tight.append(frozenset(verts))
    return [x for x in tight if not any(y < x for y in tight)]


def _candidates(g):
    """``henneberg._in_key_order`` of a walk state on g."""
    return list(henneberg._in_key_order(henneberg._State(g), len(symmetric_components(g))))


def test_candidate_component_counts_match_the_built_graphs():
    # both parts of the sort key are counted on G - O without building the
    # reduced graph; the candidates' own candidates include graphs already
    # split apart and graphs with a dense orbit
    splits_that_join = 0
    made_dense = {OneEdgeSplit: 0, OneLoopSplit: 0}
    for case in [
        *((name, 9, seed) for name in ["c1", "c2", "c3", "c4", "c5"] for seed in range(2)),
        ("c1", 9, 4),  # a split at the top joins two components of G - O
        ("c2", 6, 0),
    ]:
        g = generate_random(*case).graph
        reduced = [henneberg._reduce(g, *c).graph for _, c in _candidates(g)]
        for h in [g, *reduced, ring_with_spokes(5), _stuck()]:
            dense = _dense_count(h)
            for (comps, new), cand in _candidates(h):
                red = henneberg._reduce(h, *cand)
                # a cycle move deletes a dense orbit
                after = dense + new - isinstance(red.move, CycleEdge)
                assert (comps, after) == _counts(red.graph), (case, red.move)
                if new:
                    made_dense[type(red.move)] += 1
                if isinstance(red.move, OneEdgeSplit):
                    keep = [u for u in range(h.num_vertices) if u not in red.orbit_vertices]
                    apart, _ = induced_subgraph(h, keep)
                    splits_that_join += comps < len(symmetric_components(apart))
    assert splits_that_join > 0
    assert all(made_dense.values()), made_dense


def _as_path(start, reductions, labels):
    """A path of ``Reduction``s as ``henneberg._walk`` gives it: each one a
    ``_Step`` in ``start``'s vertex ids, then the labels and the base."""
    orig, base, steps = list(range(start.num_vertices)), start, []
    for red in reductions:
        kept = [u for u, new in zip(orig, red.vertex_map) if new is not None]
        loop_ids = {i: i for i in red.graph.loop_ids}
        move = henneberg._relabel(red.move, dict(enumerate(kept)), loop_ids)
        orbit = tuple(orig[u] for u in red.orbit_vertices)
        steps.append(henneberg._Step(move, orbit, red.orbit_loops))
        orig, base = kept, red.graph
    return tuple(steps), labels, base


def _reference_list(g, reds=None):
    """Every candidate built and checked from scratch (``reds``, by default
    the tight reductions), stable-sorted by its key, counted from scratch,
    as the walk orders them."""
    dense = _dense_count(g)
    return sorted(enumerate_reductions(g) if reds is None else reds, key=lambda r: _key(dense, r))


def _eager_walk(start, games=None):
    """Reference for ``henneberg._walk``, greedy try-and-check: at each graph
    every reduction is built and checked from scratch, the tight ones are
    sorted by their key, and the first whose graph has a single core, both
    counted from scratch, is taken, while the start has one and some
    reduction keeps it; else the first, until a union of bases remains.
    The walk's pebble ``games`` go unused."""
    g, path, single = start, [], _single_core(start)
    while (labels := base_union_labels(g)) is None:
        reds = _reference_list(g)
        if single:
            kept = [r for r in reds if _single_core(r.graph)]
            single = bool(kept)
            reds = kept or reds
        if not reds:
            raise ReductionDeadEnd("no tight reduction", g)
        path.append(reds[0])
        g = reds[0].graph
    return _as_path(start, path, labels)


def _ring_with_extensions():
    """``ring_with_spokes(3)`` grown by three moves: 15 vertices, and two
    dense orbits, the ring and its doubly looped spokes."""
    dead = ring_with_spokes(3)
    for move in (ZeroEdgeLoop(0), ZeroEdgeLoop(7), Zero2Edges(7, 10)):
        dead = apply_extension(dead, move)
    return dead


def test_lazy_search_gives_the_eager_search_traces(monkeypatch):
    cases = [
        (name, steps, seed)
        for name in ["c1", "c2", "c3", "c4", "c5"]
        for steps in (4, 9)
        for seed in range(4)
    ]
    cases.append(("c5", 12, 1))
    # greedy by key alone ends at a union of two bases
    cases += [("c1", 12, 44), ("c2", 7, 1181, "pinned2"), ("c4", 20, 2)]
    graphs = [generate_random(*case).graph for case in cases]
    lazy = [decompose(g) for g in graphs]
    monkeypatch.setattr(henneberg, "_walk", _eager_walk)
    for case, g, dec in zip(cases, graphs, lazy):
        assert decompose(g) == dec, case


def test_decompose_checks_only_the_candidates_it_reaches(monkeypatch):
    calls = 0
    original = henneberg.check_tight

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(henneberg, "check_tight", counting)
    dec = decompose(generate_random("c3", steps=40, seed=1).graph)
    assert dec.total_moves == 40
    # building and checking every candidate at every level took 695
    assert calls <= 60


def test_decompose_is_not_bounded_by_the_recursion_limit():
    code = (
        "import sys; from slcrigid import decompose, generate_random;"
        " g = generate_random('c2', 120, 0).graph; sys.setrecursionlimit(100);"
        " print(decompose(g).total_moves)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["120"]


# -- the incremental walk against try-and-check --------------------------------


def _kept(state):
    return [u for u, kept in enumerate(state.alive) if kept]


def _search_list(g, state=None):
    """What the walk's state decides at g, with no single core asked for:
    the tight reductions among its candidates, in key order, each as the
    ``Reduction`` of g that ``_reduce`` would build.  ``state`` holds g in
    g's own vertex ids (a fresh one by default); a refused candidate must
    leave it holding g, and after a taken one a fresh state goes on, with a
    copy of g's pebble games rather than games played again."""
    state = henneberg._State(g) if state is None else state
    state.single_core = False
    everyone = range(g.num_vertices)
    games = [game.restrict(everyone) for game in state.games]  # before any push
    found = []
    for _, cand in list(henneberg._in_key_order(state, len(symmetric_components(g)))):
        if not state.push(cand):
            assert (state.graph(), state.steps) == (g, []), cand
            continue
        move, orbit, loops = state.steps[-1]
        child = {u: i for i, u in enumerate(_kept(state))}
        move = henneberg._relabel(move, child, {i: i for i in state.loops})
        vertex_map = tuple(child.get(u) for u in range(g.num_vertices))
        found.append(henneberg.Reduction(move, state.graph(), orbit, loops, vertex_map))
        state = henneberg._State(g, tuple(game.restrict(everyone) for game in games))
        state.single_core = False
    return found


def test_search_agrees_with_try_and_check_three_levels_deep():
    # the walk's state decides every candidate as try-and-check does, at
    # the top and two levels down the walk's own path
    graphs = 0
    for name in ["c1", "c2", "c3", "c4", "c5", "c6"]:
        for steps in (4, 11, 18, 25):
            for seed in range(4):
                g = generate_random(name, steps, seed).graph
                for level in range(3):
                    found = _search_list(g)
                    reference = _reference_list(g)
                    assert [r.move for r in found] == [r.move for r in reference], (
                        name, steps, seed, level,
                    )
                    assert found == reference
                    graphs += 1
                    if not found:
                        break
                    g = found[0].graph  # the one the walk takes
    assert graphs > 250


@pytest.mark.parametrize(
    "case, move, why",
    [
        # the half-turn swaps x1 and x2: the edge orbit has 1 member, not 2
        (("c2", 2, 1), OneEdgeSplit(1, 2, 0), "half"),
        # full-size edge orbits, dependent in the (2,3) and the (2,0) game
        (("c5", 2, 0), OneEdgeSplit(0, 2, 9), "edges"),
        (("c3", 2, 3), OneEdgeSplit(0, 2, 5), "rows"),
        # a loop orbit dependent over G - O
        (("c2", 2, 0), OneLoopSplit(8, 3), "rows"),
    ],
)
def test_search_rejects_what_try_and_check_rejects(case, move, why):
    g = generate_random(*case).graph
    cands = [c for _, c in _candidates(g)]
    [cand] = [c for c in cands if henneberg._reduce(g, *c).move == move]
    report = henneberg.check_tight(henneberg._reduce(g, *cand).graph)
    assert not report.tight
    if why == "half":
        assert report.sparsity.verdict == "sparse-not-tight"
        assert not report.fixed_count.passed
        v1, v2 = cand[3][:2]
        assert {tuple(sorted((vp[v1], vp[v2]))) for vp, _ in action_tuples(g)} == {(v1, v2)}
    else:
        assert report.sparsity.witness.rule == why
    state = henneberg._State(g)
    assert not state.push(cand)
    assert (state.graph(), state.steps) == (g, [])
    # the games, refused and put back, still decide like try-and-check
    assert _search_list(g, state) == _reference_list(g)
    assert move not in [r.move for r in enumerate_reductions(g)]


def _audited_tight(g):
    """Tightness decided by the subset audit and the fixed counts."""
    audit = subset_audit(g.num_vertices, g.edges, g.loop_vertices)
    return audit.tight and fixed_count_check(g).passed


def test_search_agrees_with_the_subset_audit():
    for name in ["c1", "c2", "c3"]:
        for seed in range(4):
            g = generate_random(name, {"c1": 16, "c2": 7, "c3": 5}[name], seed).graph
            assert g.num_vertices <= 24
            found = [r.move for r in _search_list(g)]
            reds = (henneberg._reduce(g, *cand) for _, cand in henneberg._scan(henneberg._State(g)))
            tight = [r for r in reds if _audited_tight(r.graph)]
            assert found == [r.move for r in _reference_list(g, tight)], (name, seed)


def test_the_single_core_is_the_least_symmetric_tight_set():
    # the state's decision, the from-scratch reach sets and the definition
    # over every union of orbits agree, on graphs with a single core and
    # on graphs with several least symmetric tight sets
    graphs = [_splits(), _split_apart_dense_orbits(), _stuck(), ring_with_spokes(5)]
    graphs += [apply_extension(base_graph("pinned3"), Zero2Edges(0, 1)), base_graph("lc5")]
    for name in ["c1", "c2", "c3", "c4", "c5", "c6"]:
        for seed in range(3):
            g = generate_random(name, 7, seed).graph
            graphs += [g, *(r.graph for r in enumerate_reductions(g))]
    # every tight reduction three levels down graphs where greedy by key
    # alone splits the core
    for case in [("c1", 12, 44), ("c2", 7, 1181, "pinned2"), ("c2", 7, 1182, "p1_fixed")]:
        g = generate_random(*case).graph
        for _ in range(3):
            reds = enumerate_reductions(g)
            graphs += [r.graph for r in reds]
            g = reds[0].graph
    seen = Counter()
    for g in graphs:
        single = len(_least_tight_sets(g)) == 1
        assert _single_core(g) == single == henneberg._State(g).single_core, g
        seen[single] += 1
    assert seen[True] > 100 and seen[False] > 10, seen


def test_push_refuses_a_split_that_splits_the_core():
    # on a graph with a single core, a tight split candidate is taken
    # exactly when its graph keeps one; a reduction that adds nothing back
    # always keeps it
    refused = 0
    for name in ["c1", "c2", "c3", "c5"]:
        for seed in range(6):
            g = generate_random(name, 10, seed).graph
            for _ in range(4):  # down the walk's own path
                single = _single_core(g)
                for _, cand in _candidates(g):
                    red = henneberg._reduce(g, *cand)
                    if not henneberg.check_tight(red.graph).tight:
                        continue
                    keeps = _single_core(red.graph)
                    assert henneberg._State(g).push(cand) == (keeps or not single), cand
                    assert keeps or not single or cand[2] in (OneEdgeSplit, OneLoopSplit)
                    refused += single and not keeps
                g = _walk_once(g)
    assert refused > 0


def _walk_once(g):
    """The graph after the walk's first reduction of g."""
    state = henneberg._State(g)
    for _, cand in list(henneberg._in_key_order(state, len(symmetric_components(g)))):
        if state.push(cand):
            return state.graph()
    return g


def _cycle_grown():
    """Generated graphs grown by one or two cycle moves, each as the graph
    before the last move, the move, and the graph after it."""
    for name, step in [("c3", 1), ("c4", 1), ("c5", 2), ("c6", 2)]:
        for seed in range(3):
            g = generate_random(name, 6, seed).graph
            moves = [CycleEdge(seed, step), CycleEdge(g.num_vertices + seed, step)]
            for move in moves[: 1 + seed % 2]:
                h = apply_extension(g, move)
                yield g, move, h
                g = h


def test_reduce_equals_push_on_cycle_edge_candidates():
    # the cycle move's inverse, decided by the state, is the reduction
    # _reduce builds, and it undoes the move; the graph with two cycle
    # orbits offers both
    cycles = 0
    for before, move, g in _cycle_grown():
        assert is_tight(g)
        found = _search_list(g)
        assert found == _reference_list(g)
        undo = [r for r in found if r.move == move]
        assert [r.graph for r in undo] == [before], move
        cycles += sum(isinstance(r.move, CycleEdge) for r in found)
    for g in (ring_with_spokes(5), _stuck()):
        found = _search_list(g)
        assert found == _reference_list(g)
        cycles += sum(isinstance(r.move, CycleEdge) for r in found)
    assert cycles > 14, cycles


def _grown_with_cycle_moves(name, steps, seed):
    """A base grown by ``steps`` random moves of all five kinds, cycle moves
    among them, each drawn as ``generate_random`` draws the other four; a
    move that does not apply is drawn again.  Returns the graph, the base
    label and the moves."""
    group = GroupSpec.from_name(name)
    rng = random.Random(seed)
    label = rng.choice(default_bases(group))
    g, moves = base_graph(label), []
    orders = [k for k, el in enumerate(group.elements()) if group.element_order(el) >= 3]
    while len(moves) < steps:
        n = g.num_vertices
        kind = rng.choice([Zero2Edges, ZeroEdgeLoop, CycleEdge, OneEdgeSplit, OneLoopSplit])
        if kind is Zero2Edges and n >= 2:
            move = Zero2Edges(*sorted(rng.sample(range(n), 2)))
        elif kind is ZeroEdgeLoop:
            move = ZeroEdgeLoop(rng.randrange(n))
        elif kind is CycleEdge:
            move = CycleEdge(rng.randrange(n), rng.choice(orders))
        elif kind is OneEdgeSplit and g.edges:
            move = OneEdgeSplit(*rng.choice(g.edges), rng.randrange(n))
        elif kind is OneLoopSplit and g.loops:
            move = OneLoopSplit(rng.choice(g.loop_ids), rng.randrange(n))
        else:
            continue
        try:
            g = apply_extension(g, move)
        except (InvalidMoveError, RangeError):
            continue
        moves.append(move)
    return g, label, moves


def test_graphs_grown_with_cycle_moves_decompose_to_one_base(monkeypatch):
    # cycle orbits anywhere below the top, not only in the last move: the
    # walk keeps a single core, reaches one base in as many moves as the
    # graph was grown by, and decides at most two candidates per move
    decided = []
    monkeypatch.setattr(henneberg._State, "push", _recording(decided, henneberg._State.push))
    below = 0
    for name in ["c3", "c5", "c7"]:
        for seed in range(8):
            steps = 10 + 2 * seed
            g, _, moves = _grown_with_cycle_moves(name, steps, seed)
            below += sum(isinstance(m, CycleEdge) for m in moves[:-1])
            assert is_tight(g), (name, seed)
            decided.clear()
            dec = decompose(g)
            assert len(dec.components) == 1
            assert "+" not in dec.components[0].base_label, (name, seed)
            assert dec.total_moves == steps, (name, seed)
            assert verify_decomposition(g, dec)
            assert len(decided) <= 2 * steps, (name, seed, len(decided))
    assert below > 50, below


def test_the_walk_gives_the_single_core_up_when_no_reduction_keeps_it(monkeypatch):
    # c4 is not certified: this graph is grown from p1_swap, so it has a
    # single core, but at one level no tight reduction keeps it, and the
    # walk goes on to a union of bases, as the reference does
    g, label, moves = _grown_with_cycle_moves("c4", 20, 94)
    assert label == "p1_swap" and _single_core(g)
    dec = decompose(g)
    assert [c.base_label for c in dec.components] == ["p1_swap+lc4"]
    assert dec.total_moves == 19
    assert verify_decomposition(g, dec)
    monkeypatch.setattr(henneberg, "_walk", _eager_walk)
    assert decompose(g) == dec

def _components_without(adj, r):
    """Component count after deleting node r (None: delete nothing), and
    the component root of every neighbour of r."""
    keep = [x for x in adj if x != r]
    index = {x: i for i, x in enumerate(keep)}
    pairs = [(index[a], index[b]) for a in keep for b in adj[a] if b != r]
    roots = _union_find(len(keep), pairs)
    return len(set(roots)), {w: roots[index[w]] for w in adj.get(r, ())}


def test_cut_pieces_match_deleting_each_node():
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randint(1, 14)
        adj = {x: set() for x in rng.sample(range(40), n)}
        nodes = list(adj)
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(nodes, 2) if n > 1 else (nodes[0], nodes[0])
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        total = _components_without(adj, None)[0]
        for r in nodes:
            comps, root_of = _components_without(adj, r)
            # the lockstep searches from r's neighbours label them alike
            label = henneberg._apart(adj, r)
            assert set(label) == adj[r]
            assert total - 1 + len(set(label.values())) == comps, (adj, r)
            for a in adj[r]:
                for b in adj[r]:
                    assert (label[a] == label[b]) == (root_of[a] == root_of[b]), (adj, r)


# -- one walk level, decided locally -----------------------------------------


def _two_bases_grown():
    """``pinned3`` and ``lc3`` side by side, each grown by one move: a
    tight graph of two symmetric components."""
    apart = _turned(3, 6, ((3, 4), (3, 5), (4, 5)), (0, 1, 2, 0, 1, 2, 3, 4, 5))
    return apply_extension(apply_extension(apart, ZeroEdgeLoop(0)), Zero2Edges(3, 4))


def test_decompose_plays_the_input_pebble_game_once(monkeypatch):
    # check_tight's pebble_check is the one game played: each component's
    # walk starts from that finished game, restricted to the component
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for module in (sparsity, symcheck, henneberg):
        for name in ("pebble_check", "pebble_games", "subset_audit"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    graphs = [generate_random(*case).graph for case in DECOMPOSE_MID]
    graphs += [_two_bases_grown(), _splits()]
    for g in graphs:
        calls.clear()
        dec = decompose(g)
        played = calls["pebble_check"], calls["pebble_games"], calls["subset_audit"]
        assert played == (1, 0, 0), calls
        assert verify_decomposition(g, dec)
    assert len(decompose(_two_bases_grown()).components) == 2


def test_a_fresh_state_fills_its_neighbours_and_quotient_as_one_join_per_edge():
    # the walk iterates the neighbour sets and the quotient's counters, so
    # their bulk fill keeps the order that joining one edge at a time gives
    graphs = [generate_random(*case).graph for case in DECOMPOSE_MID]
    graphs += [_two_bases_grown(), _splits(), _ring_with_extensions()]
    graphs.append(generate_random("c2", 500, 0).graph)  # sets whose ids collide
    for g in graphs:
        state = henneberg._State(g)
        nbrs = [set() for _ in range(g.num_vertices)]
        quotient = {r: Counter() for r in state.size}
        for a, b in g.edges:
            for x, y in ((a, b), (b, a)):
                nbrs[x].add(y)
                if state.rep[x] != state.rep[y]:
                    quotient[state.rep[x]][state.rep[y]] += 1
        assert [list(heads) for heads in state.nbrs] == [list(heads) for heads in nbrs]
        assert list(state.quotient) == list(quotient)
        assert [list(c.items()) for c in state.quotient.values()] == [
            list(c.items()) for c in quotient.values()
        ]


def _fresh_candidates(state):
    """The scan of a fresh state on the graph that ``state`` holds, in
    ``state``'s vertex ids, each item with the key of its candidate
    counted from scratch, on the reduced graph built."""
    g, kept = state.graph(), _kept(state)
    dense = _dense_count(g)
    found = []
    for new, cand in henneberg._scan(henneberg._State(g)):
        key = _key(dense, henneberg._reduce(g, *cand))
        v, loop, kind, ends = cand
        ends = (kept[ends[0]], ends[1]) if kind is CycleEdge else tuple(kept[u] for u in ends)
        found.append((key, (new, (kept[v], loop, kind, ends))))
    return found


def test_each_level_is_decided_as_the_full_scan_and_sort_decide(monkeypatch):
    # at every level of the walk the kept candidates are a fresh scan's,
    # and the lazy order is the full sort's as far as the walk reads it, so
    # the walk takes the candidate the full sort would; levels where no
    # candidate of the least key is taken are among them
    lazy = henneberg._in_key_order
    levels = Counter()

    def checked(state, comps):
        scan = list(henneberg._scan(state))
        # orbits in increasing order, those with a cycle move last
        assert scan == sorted(scan, key=lambda item: (item[1][2] is CycleEdge, item[1][0]))
        fresh = _fresh_candidates(state)
        assert scan == [item for _, item in fresh], state.steps
        assert comps == len(symmetric_components(state.graph()))
        expected = sorted(((key, cand) for key, (_, cand) in fresh), key=itemgetter(0))
        levels["all"] += 1
        read, past = 0, False
        for item in lazy(state, comps):
            assert item == expected[read], (state.steps, read)
            if item[0] != (comps, False) and not past:
                levels["past the least key"] += 1
                past = True
            read += 1
            yield item
        assert read == len(expected)

    monkeypatch.setattr(henneberg, "_in_key_order", checked)
    graphs = [
        generate_random(name, steps, seed).graph
        for name in ["c1", "c2", "c3", "c4", "c5", "c6"]
        for steps in (9, 30)
        for seed in range(4)
    ]
    graphs += [_splits(), _stuck(), _ring_with_extensions(), ring_with_spokes(5)]
    # a cycle orbit, then an orbit with larger ids that must come before it
    graphs += [apply_extension(g, ZeroEdgeLoop(move.v1)) for _, move, g in _cycle_grown()]
    for g in graphs:
        decompose(g)
    assert levels["all"] > 500 and levels["past the least key"] > 10, levels


def _in_arcs(game):
    """The (2,0) game's in-arcs, from its out-arcs."""
    into = [set() for _ in game.out]
    for u, heads in enumerate(game.out):
        for w in heads:
            into[w].add(u)
    return into


def test_in_arcs_and_the_single_core_stay_right_after_every_push(monkeypatch):
    # after every taken and every refused push the row game's in-arcs,
    # once kept, are its out-arcs reversed, and the state, by its anchor or by
    # both searches, decides the single core as the from-scratch reach
    # sets do
    push = henneberg._State.push
    seen = Counter()

    def pushing(state, cand):
        taken = push(state, cand)
        into = state.games[1].into  # kept from the first single-core check on
        assert into is None or into == _in_arcs(state.games[1]), (cand, taken)
        single = _single_core(state.graph())
        assert state._single_core(()) == single, (cand, taken)
        seen[taken, single] += 1
        return taken

    monkeypatch.setattr(henneberg._State, "push", pushing)
    graphs = [
        generate_random(name, steps, seed).graph
        for name in ["c1", "c2", "c3", "c4", "c5"]
        for steps in (9, 20)
        for seed in range(3)
    ]
    graphs += [_splits(), _split_apart_dense_orbits(), _stuck(), _ring_with_extensions()]
    graphs.append(_grown_with_cycle_moves("c4", 20, 94)[0])  # gives the core up
    for g in graphs:
        decompose(g)
    assert seen[True, True] > 300 and seen[False, True] > 10 and seen[True, False], seen


# outputs pinned when candidates were first ordered by permanent orbits as
# well as components: sha256 over document.dumps of each decomposition, in
# case order
DECOMPOSE_MID = (
    ("c1", 20, 0), ("c1", 35, 3), ("c2", 25, 1), ("c2", 30, 0),
    ("c3", 20, 0), ("c3", 40, 1), ("c5", 12, 1), ("c5", 18, 1),
)
GENERATED = tuple(
    (name, steps, seed)
    for name in ["c1", "c2", "c3", "c4", "c5", "c6"]
    for steps in (4, 9)
    for seed in range(4)
)
PINNED = {
    DECOMPOSE_MID: "d9904ee3619908a516e4fad115626baf50cf64d1231d540bf3578b0d7403010c",
    GENERATED: "683ebf1c252d57d48bf1fcb56f6d632ececa644894ee3bb55f677d9a252a7d29",
}


# generate_random's outputs, pinned before moves were applied in place:
# sha256 over document.dumps of each graph, its base label and its moves,
# in case order
GENERATION = tuple(
    (name, steps, seed)
    for name in ["c1", "c2", "c3", "c4", "c5", "c6"]
    for steps in (0, 9, 60)
    for seed in range(4)
)
GENERATION_LARGE = (("c2", 500, 0), ("c5", 200, 0))  # n = 1002 and 1005
PINNED_GENERATION = {
    GENERATION: "89cfe6f3369bc7100ee67624b2490f9df7b73c111926d3a37b1c93c4ef8bca41",
    GENERATION_LARGE: "36547b6ab3f7b6f8a064db3c5caf1c1221aecd2891cc69104a4c6684cbe16ae6",
}


def test_generate_random_outputs_are_pinned():
    for cases, digest in PINNED_GENERATION.items():
        h = hashlib.sha256()
        for case in cases:
            gen = generate_random(*case)
            h.update(document.dumps(document.graph_to_dict(gen.graph)).encode())
            h.update(gen.base_label.encode())
            h.update(document.dumps([document.move_to_dict(m) for m in gen.moves]).encode())
        assert h.hexdigest() == digest


def test_generation_and_replay_build_the_graph_once(monkeypatch):
    builds = 0
    post_init = SymmetricGraph.__post_init__

    def counting(self):
        nonlocal builds
        builds += 1
        post_init(self)

    monkeypatch.setattr(SymmetricGraph, "__post_init__", counting)
    gen = generate_random("c2", 500, 0)
    # the base and the result, not one graph per move
    assert builds <= 2
    trace = ComponentTrace(
        gen.base_label,
        base_graph(gen.base_label),
        gen.moves,
        tuple(range(gen.graph.num_vertices)),
        tuple((i, i) for i in gen.graph.loop_ids),
    )
    builds = 0
    assert replay(trace) == gen.graph
    assert builds <= 2


def test_decompose_replays_a_trace_building_one_graph(monkeypatch):
    builds = None
    post_init, walk = SymmetricGraph.__post_init__, henneberg._walk

    def counting(self):
        nonlocal builds
        builds = None if builds is None else builds + 1
        post_init(self)

    def walking(start, games):
        nonlocal builds
        path = walk(start, games)
        builds = 0  # the replay starts here
        return path

    g = generate_random("c2", 500, 0).graph
    monkeypatch.setattr(SymmetricGraph, "__post_init__", counting)
    monkeypatch.setattr(henneberg, "_walk", walking)
    dec = decompose(g)
    # the grown graph, built in the component's labels, not one graph per
    # move nor a relabeled copy
    assert dec.total_moves == 500
    assert builds == 1, builds


def _walk_starts(monkeypatch):
    """The list each ``_walk`` call appends its start graph to."""
    starts, walk = [], henneberg._walk

    def walking(start, games):
        starts.append(start)
        return walk(start, games)

    monkeypatch.setattr(henneberg, "_walk", walking)
    return starts


def test_a_one_component_input_is_walked_as_itself(monkeypatch):
    # the walk starts from the input object, which keeps the action and
    # validation check_tight cached on it, and no component graph or
    # relabeled copy is built, in decompose or in verify_decomposition
    starts, cut = _walk_starts(monkeypatch), []
    monkeypatch.setattr(henneberg, "induced_subgraph", _recording(cut, induced_subgraph))
    monkeypatch.setattr(symgraph, "relabel", _recording(cut, relabel))
    for case in DECOMPOSE_MID:
        g = generate_random(*case).graph
        starts.clear()
        dec = decompose(g)
        assert len(starts) == 1 and starts[0] is g, case
        assert verify_decomposition(g, dec), case
        assert cut == [], case


def test_an_input_of_two_components_is_walked_as_two_component_graphs(monkeypatch):
    # each component of _two_bases_grown() is built as its own graph, which
    # its walk starts from and its replay must equal
    starts, cut = _walk_starts(monkeypatch), []
    g = _two_bases_grown()
    monkeypatch.setattr(henneberg, "induced_subgraph", _recording(cut, induced_subgraph))
    dec = decompose(g)
    comps = symmetric_components(g)
    assert len(comps) == len(dec.components) == 2
    built = [sub for (_, comp), (sub, _) in cut[:2]]
    assert [comp for (_, comp), _ in cut[:2]] == list(comps)
    assert len(starts) == 2 and all(s is sub for s, sub in zip(starts, built))
    assert verify_decomposition(g, dec)


def _recording(log, fn):
    def recorded(*args):
        result = fn(*args)
        log.append((args, result))
        return result

    return recorded


def _replayed(trace):
    """The base, then the graph after each move of the trace."""
    graphs = [trace.base_graph]
    for move in trace.moves:
        graphs.append(apply_extension(graphs[-1], move))
    return graphs


def test_decompose_outputs_are_unchanged_and_checked_once(monkeypatch):
    checks, validated = [], []
    builds = 0
    post_init = SymmetricGraph.__post_init__

    def counting(self):
        nonlocal builds
        builds += 1
        post_init(self)

    monkeypatch.setattr(henneberg, "check_tight", _recording(checks, henneberg.check_tight))
    monkeypatch.setattr(symgraph, "validate_action", _recording(validated, symgraph.validate_action))
    for cases, digest in PINNED.items():
        h = hashlib.sha256()
        for case in cases:
            validated.clear()
            g = generate_random(*case).graph
            checks.clear()
            monkeypatch.setattr(SymmetricGraph, "__post_init__", counting)
            builds = 0
            dec = decompose(g)
            monkeypatch.setattr(SymmetricGraph, "__post_init__", post_init)
            h.update(document.dumps(document.decomposition_to_dict(dec)).encode())
            assert [args[0] for args, _ in checks] == [g], case
            # each graph is validated once, its report kept on it: the
            # input when generate_random checks it, then each trace's base;
            # the result is checked by equality with the validated input
            bases = [trace.base_graph for trace in dec.components]
            assert [args[0] for args, _ in validated] == [g, *bases], case
            # the walk builds no graph per step, nor does the replay
            assert builds <= 6 * len(dec.components), (case, builds)
            # the in-place replay gives what applying the moves one by one does
            for trace in dec.components:
                assert replay(trace) == _replayed(trace)[-1], case
        assert h.hexdigest() == digest


# -- graphs that need the cycle move, unions of bases, and candidates decided --


def _turned(order, n, edges, loop_vertices):
    """A c<order> graph whose rotation turns each block of ``order``
    vertices, and each block of ``order`` loop ids, by one; loop id i sits
    on ``loop_vertices[i]``."""
    turn = lambda x: x - x % order + (x + 1) % order
    return SymmetricGraph(
        GroupSpec("cyclic", order),
        n,
        edges,
        tuple(Loop(i, v) for i, v in enumerate(loop_vertices)),
        rotation_vertex_perm=tuple(turn(v) for v in range(n)),
        rotation_loop_perm={i: turn(i) for i in range(len(loop_vertices))},
    )


def _stuck():
    """Tight, with one dense orbit, the triangle 0-1-2 spoked to the
    orbit 6-8.  The looped orbit 3-5 and the orbit 6-8 both have degree 4,
    so only the triangle can go, by the cycle move."""
    edges = [(0, 1), (0, 2), (1, 2), (0, 6), (1, 7), (2, 8)]
    edges += [(b, c) for b in (3, 4, 5) for c in (6, 7, 8)]
    return _turned(3, 9, tuple(edges), (3, 4, 5))


def _splits():
    """Tight and one component, but deleting the orbit 6-8 cuts the doubly
    looped orbit 0-2 off from the rest, and no other reduction is tight: the
    looped orbit and the rest are two disjoint symmetric tight sets."""
    edges = [(0, 6), (1, 7), (2, 8), (6, 10), (7, 11), (8, 9)]
    edges += [(b, d) for b in (3, 4, 5) for d in (9, 10, 11)]
    return _turned(3, 12, tuple(edges), (0, 1, 2, 0, 1, 2, 3, 4, 5))


def test_graphs_that_need_the_cycle_move_decompose():
    # certified, tight and isostatic: without the cycle move no reduction
    # reached a base from any of them
    for g, label, moves in [
        (ring_with_spokes(5), "pinned5", 1),
        (_ring_with_extensions(), "pinned3", 4),
        (_stuck(), "lc3", 2),
    ]:
        assert is_tight(g) and certified_group(g.group)
        assert classify(g, trials=3, seed=0).classification == "isostatic"
        dec = decompose(g)
        assert [c.base_label for c in dec.components] == [label]
        assert dec.total_moves == moves
        assert any(isinstance(m, CycleEdge) for m in dec.components[0].moves)
        assert verify_decomposition(g, dec)
    [trace] = decompose(ring_with_spokes(5)).components
    assert trace.moves == (CycleEdge(0, 1),)


def test_a_graph_that_splits_falls_back_to_a_union_of_bases():
    g = _splits()
    assert is_tight(g) and len(symmetric_components(g)) == 1
    # no single core, so no single base builds it
    assert not _single_core(g) and not henneberg._State(g).single_core
    # the only tight reduction splits it, and the walk goes on in both pieces
    dec = decompose(g)
    assert [c.base_label for c in dec.components] == ["pinned3+lc3"]
    assert dec.total_moves == 2
    assert verify_decomposition(g, dec)


def _split_apart_dense_orbits():
    """``pinned3`` and ``lc3`` side by side, joined by one free orbit: one
    component with two dense orbits, which deleting the free orbit splits
    into two base pieces."""
    edges = ((3, 4), (3, 5), (4, 5))
    return apply_extension(_turned(3, 6, edges, (0, 1, 2, 0, 1, 2, 3, 4, 5)), Zero2Edges(0, 3))


def test_two_permanent_orbits_that_split_apart_give_a_union_of_bases():
    g = _split_apart_dense_orbits()
    assert is_tight(g) and len(symmetric_components(g)) == 1
    assert _dense_count(g) == 2
    assert not _single_core(g)  # each base piece is a symmetric tight set
    assert g.edges == ((0, 6), (1, 7), (2, 8), (3, 4), (3, 5), (3, 6), (4, 5), (4, 7), (5, 8))
    dec = decompose(g)
    assert [c.base_label for c in dec.components] == ["pinned3+lc3"]
    assert dec.total_moves == 1
    assert verify_decomposition(g, dec)  # replays the trace


def test_eager_reference_agrees_on_the_fallback_and_the_dead_ends(monkeypatch):
    graphs = [
        _splits(),
        _split_apart_dense_orbits(),
        _stuck(),
        _ring_with_extensions(),
        ring_with_spokes(5),
        mirror_fixed_vertex(),  # a dead end
    ]
    outcomes = []
    for walk in (henneberg._walk, _eager_walk):
        monkeypatch.setattr(henneberg, "_walk", walk)
        for g in graphs:
            try:
                outcomes.append(decompose(g))
            except ReductionDeadEnd as err:
                outcomes.append(err.graph)
    assert outcomes[:6] == outcomes[6:]
    assert outcomes[5] == mirror_fixed_vertex()


def test_carried_counts_equal_counts_from_scratch(monkeypatch):
    # the walk reads each reduction's key off the state, and carries its
    # component count down; here both are recounted on the graphs before
    # and after every reduction it takes
    keys, taken = {}, 0
    candidates, push = henneberg._in_key_order, henneberg._State.push

    def reading(state, comps):
        for key, cand in candidates(state, comps):
            keys[cand] = key
            yield key, cand

    def pushing(state, cand):
        nonlocal taken
        dense = _dense_count(state.graph())
        if not push(state, cand):
            return False
        taken += 1
        comps, new = keys[cand]
        after = dense + new - (cand[2] is CycleEdge)
        assert (comps, after) == _counts(state.graph()), state.steps[-1]
        return True

    monkeypatch.setattr(henneberg, "_in_key_order", reading)
    monkeypatch.setattr(henneberg._State, "push", pushing)
    graphs = [
        generate_random(name, steps, seed).graph
        for name in ["c1", "c2", "c3", "c4", "c5", "c6"]
        for steps in (4, 9, 18)
        for seed in range(4)
    ]
    graphs += [_splits(), _stuck(), _ring_with_extensions(), ring_with_spokes(5)]
    for g in graphs:
        assert verify_decomposition(g, decompose(g))
    assert taken > 500


@pytest.mark.parametrize(
    "case",
    # each ran past 14 s, tens of thousands of candidates, before the order
    [("c3", 20, 2), ("c1", 60, 0), ("c2", 40, 0), ("c3", 40, 4), ("c5", 20, 0)],
)
def test_graphs_that_blew_up_reduce_in_few_steps(monkeypatch, case):
    # work is bounded by candidates decided, not by wall clock
    decided = []
    monkeypatch.setattr(henneberg._State, "push", _recording(decided, henneberg._State.push))
    gen = generate_random(*case)
    dec = decompose(gen.graph)
    assert len(dec.components) == 1
    assert "+" not in dec.components[0].base_label
    assert dec.total_moves == case[1]
    assert verify_decomposition(gen.graph, dec)
    assert len(decided) <= 2 * case[1], len(decided)


@pytest.mark.parametrize(
    "case",
    # before the cycle move and the greedy walk, c5 15/7 took 2.3 s (7,881
    # candidates) and c4 18/1 18 s, and the others gave no result within
    # 10 s; c4 is not certified
    [("c5", 15, 7), ("c5", 18, 7), ("c5", 50, 0), ("c4", 18, 1), ("c4", 200, 2)],
)
def test_slow_or_stuck_graphs_decompose_greedily(monkeypatch, case):
    decided = []
    monkeypatch.setattr(henneberg._State, "push", _recording(decided, henneberg._State.push))
    gen = generate_random(*case)
    dec = decompose(gen.graph)
    assert verify_decomposition(gen.graph, dec)
    assert len(dec.components) == 1
    assert "+" not in dec.components[0].base_label
    assert dec.total_moves == case[1]
    # at most two per level of the one walk
    assert len(decided) <= 2 * case[1], len(decided)


@pytest.mark.parametrize(
    "case, union, single",
    [
        # generated from one base, as every graph of the acceptance pools
        (("c1", 12, 44), "pinned1+pinned1", "pinned1"),
        (("c2", 7, 1181, "pinned2"), "pinned2+pinned2", "pinned2"),
        (("c2", 7, 1182, "p1_fixed"), "p1_fixed+pinned2", "p1_fixed"),
        # c4 is not certified; the backtracking search decided up to 366
        # candidates here
        (("c4", 20, 2), "p1_swap+pinned4", "p1_swap"),
    ],
)
def test_the_walk_keeps_a_single_core(monkeypatch, case, union, single):
    gen = generate_random(*case)
    assert _single_core(gen.graph)
    decided = []
    monkeypatch.setattr(henneberg._State, "push", _recording(decided, henneberg._State.push))
    dec = decompose(gen.graph)
    assert [c.base_label for c in dec.components] == [single]
    assert dec.total_moves == case[1]
    assert verify_decomposition(gen.graph, dec)
    assert len(decided) <= 2 * case[1], len(decided)
    # greedy by key alone, with no single core asked for, splits off a
    # piece one move early
    monkeypatch.setattr(henneberg._State, "single_core", False)
    steps, labels, _ = henneberg._walk(gen.graph)
    assert ("+".join(labels), len(steps)) == (union, case[1] - 1)


def test_the_state_holds_the_graphs_the_reduce_chain_builds(monkeypatch):
    # at every graph the walk reaches, the graph built from the state is
    # the one _reduce builds along the path, and it passes validate_action
    decided, reached = [], 0
    chain = []  # chain[d]: the graph after d steps of the path, its start ids
    walk, push = henneberg._walk, henneberg._State.push
    candidates = henneberg._in_key_order

    def walking(start, games):
        chain[:] = [(start, list(range(start.num_vertices)))]
        return walk(start, games)

    def pushing(state, cand):
        decided.append(cand)
        depth = len(state.steps)
        if not push(state, cand):
            return False
        g, keep = chain[depth]
        pos = {u: i for i, u in enumerate(keep)}
        v, loop, kind, ends = cand
        ends = (pos[ends[0]], ends[1]) if kind is CycleEdge else tuple(pos[u] for u in ends)
        red = henneberg._reduce(g, pos[v], loop, kind, ends)
        chain[depth + 1 :] = [(red.graph, [u for u, i in zip(keep, red.vertex_map) if i is not None])]
        return True

    def reaching(state, comps):
        nonlocal reached
        reached += 1
        g = state.graph()
        assert g == chain[len(state.steps)][0], state.steps
        symcheck.require_valid_action(g)
        return candidates(state, comps)

    monkeypatch.setattr(henneberg, "_walk", walking)
    monkeypatch.setattr(henneberg._State, "push", pushing)
    monkeypatch.setattr(henneberg, "_in_key_order", reaching)
    counts = []
    for case in DECOMPOSE_MID:
        decided.clear()
        decompose(generate_random(*case).graph)
        counts.append(len(decided))
    assert counts == [24, 39, 30, 34, 24, 48, 13, 19]  # as with built candidates
    decided.clear()
    decompose(generate_random("c4", 20, 2).graph)  # a split is refused
    assert len(decided) <= 2 * 20, len(decided)
    for g in (_splits(), _split_apart_dense_orbits(), _stuck(), _ring_with_extensions()):
        decompose(g)
    assert reached > 200, reached


def test_a_long_backtracking_search_decides_no_more_candidates(monkeypatch):
    # the backtracking search decided 7,881 candidates here; the greedy
    # walk decides at most two per move
    decided = []
    monkeypatch.setattr(henneberg._State, "push", _recording(decided, henneberg._State.push))
    gen = generate_random("c5", 15, 7)
    dec = decompose(gen.graph)
    assert dec.total_moves == 15 and verify_decomposition(gen.graph, dec)
    assert len(decided) <= 2 * 15, len(decided)


def _two_build_reduce(g, v, loop, kind, ends):
    """``henneberg._reduce`` as it was: ``induced_subgraph``, then a second
    build that adds a split's edge or loop orbit (cyclic groups only)."""
    action = action_tuples(g)
    orbit_vertices = tuple(vp[v] for vp, _ in action)
    orbit_loops = () if loop is None else tuple(lp[g.loop_index(loop)] for _, lp in action)
    keep = [u for u in range(g.num_vertices) if u not in orbit_vertices]
    red, vmap = induced_subgraph(g, keep)
    a = [vmap[u] for u in ends]
    if kind is Zero2Edges:
        move = Zero2Edges(*sorted(a))
    elif kind is ZeroEdgeLoop:
        move = ZeroEdgeLoop(a[0])
    elif kind is OneEdgeSplit:
        added = {tuple(sorted((vp[a[0]], vp[a[1]]))) for vp, _ in action_tuples(red)}
        red = dataclasses.replace(red, edges=red.edges + tuple(added))
        move = OneEdgeSplit(*a)
    else:
        red_action = action_tuples(red)
        base, t = max(red.loop_ids, default=-1) + 1, len(red_action)
        loops = red.loops + tuple(Loop(base + k, vp[a[0]]) for k, (vp, _) in enumerate(red_action))
        turn = None
        if red.rotation_loop_perm is not None:
            turn = dict(zip(red.loop_ids, red.rotation_loop_perm))
            turn |= {base + k: base + (k + 1) % t for k in range(t)}
        red = dataclasses.replace(red, loops=loops, rotation_loop_perm=turn)
        move = OneLoopSplit(base, a[1])
    vertex_map = tuple(vmap.get(u) for u in range(g.num_vertices))
    return henneberg.Reduction(move, red, orbit_vertices, orbit_loops, vertex_map)


def test_reduce_builds_the_reduced_graph_once(monkeypatch):
    builds = 0
    post_init = SymmetricGraph.__post_init__

    def counting(self):
        nonlocal builds
        builds += 1
        post_init(self)

    kinds = set()
    for name in ["c1", "c2", "c3", "c4", "c5", "c6"]:
        for seed in range(3):
            g = generate_random(name, 9, seed).graph
            g.action  # built before counting
            for _, cand in _candidates(g):
                expected = _two_build_reduce(g, *cand)
                monkeypatch.setattr(SymmetricGraph, "__post_init__", counting)
                builds = 0
                red = henneberg._reduce(g, *cand)
                monkeypatch.setattr(SymmetricGraph, "__post_init__", post_init)
                assert builds == 1
                assert red == expected, (name, seed, cand)
                kinds.add(type(red.move))
    assert kinds == {Zero2Edges, ZeroEdgeLoop, OneEdgeSplit, OneLoopSplit}
