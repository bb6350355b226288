"""Symmetric placements, rigidity matrices, rank backends, and motions."""

import math
import random
from functools import lru_cache

import numpy as np
import pytest

from conftest import (
    c2_fixed_edge,
    c3_wheel,
    d3_flower,
    mirror_fixed_vertex,
    mirror_pair,
    ring_with_spokes,
)
from slcrigid import (
    DegenerateInputError,
    Framework,
    GroupElement,
    GroupSpec,
    Loop,
    SymmetricGraph,
    base_graph,
    build_rigidity_matrix,
    check_framework,
    classify,
    default_bases,
    element_action,
    generate_random,
    motions,
    rank,
    realize,
    sample_symmetric_placement,
    symgraph,
)
from slcrigid.realize import DEFAULT_TOL, _block_spectrum, _float_rank, _orbits_under
from slcrigid.selftest import negative_control


@lru_cache(maxsize=None)
def c5_605():
    """c5, steps=120, seed=0: n=605, the largest verdict-large input."""
    return generate_random("c5", steps=120, seed=0).graph


def test_sampling_is_deterministic_in_the_seed():
    g = base_graph("lc5")
    a = sample_symmetric_placement(g, seed=3)
    b = sample_symmetric_placement(g, seed=3)
    c = sample_symmetric_placement(g, seed=4)
    assert a.p == b.p and a.q == b.q
    assert a.p != c.p


def test_sampled_placement_is_symmetric():
    for label in ["lc5", "p1_fixed", "p1_swap", "pinned3"]:
        g = base_graph(label)
        fw = sample_symmetric_placement(g, seed=1)
        assert check_framework(fw) == ()
        group = g.group
        for e in group.elements():
            act = element_action(g, e)
            tau = group.tau(e)
            for v in range(g.num_vertices):
                x, y = fw.p[v]
                gx = tau[0][0] * x + tau[0][1] * y
                gy = tau[1][0] * x + tau[1][1] * y
                ix, iy = fw.p[act.vertex[v]]
                assert math.hypot(gx - ix, gy - iy) < 1e-6 * 10**6


def test_integral_groups_sample_exact_coordinates():
    fw = sample_symmetric_placement(base_graph("p1_fixed"), seed=0)
    assert fw.exact
    fw2 = sample_symmetric_placement(base_graph("lc3"), seed=0)
    assert not fw2.exact


def test_two_rotation_fixed_vertices_cannot_be_placed():
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        2,
        (),
        (Loop(0, 0), Loop(1, 0), Loop(2, 1), Loop(3, 1)),
        rotation_vertex_perm=(0, 1),
        rotation_loop_perm={0: 0, 1: 1, 2: 2, 3: 3},
    )
    with pytest.raises(DegenerateInputError):
        sample_symmetric_placement(g, seed=0)


def test_framework_shape_validation():
    g = base_graph("lc3")
    with pytest.raises(Exception):
        Framework(g, ((0, 0),), ())


def test_matrix_rows_follow_edges_then_loops():
    g = c2_fixed_edge()
    fw = sample_symmetric_placement(g, seed=0)
    m = build_rigidity_matrix(fw)
    assert m.num_rows == 6
    assert m.num_cols == 6
    assert m.row_labels == (
        "edge 0-1",
        "edge 0-2",
        "edge 1-2",
        "loop 0",
        "loop 1",
        "loop 2",
    )
    # edge rows: difference vector at one end, negated at the other
    row = m.entries[0]
    du = (fw.p[0][0] - fw.p[1][0], fw.p[0][1] - fw.p[1][1])
    assert (row[0], row[1]) == du
    assert (row[2], row[3]) == (-du[0], -du[1])
    assert (row[4], row[5]) == (0, 0)
    # loop rows: the normal in that vertex block only
    lrow = m.entries[3]
    assert (lrow[0], lrow[1]) == fw.q[0]
    assert lrow[2:] == (0, 0, 0, 0)


def test_degenerate_placements_are_rejected():
    g = SymmetricGraph(GroupSpec("cyclic", 1), 2, ((0, 1),), (Loop(0, 0),))
    with pytest.raises(DegenerateInputError):
        build_rigidity_matrix(Framework(g, ((1, 1), (1, 1)), ((1, 0),)))
    with pytest.raises(DegenerateInputError):
        build_rigidity_matrix(Framework(g, ((0, 0), (1, 1)), ((0, 0),)))


def test_float_and_exact_ranks_agree_on_integral_groups():
    rng = random.Random(17)
    for label in ["p1_fixed", "p1_swap", "pinned1", "pinned2"]:
        g = base_graph(label)
        for _ in range(3):
            fw = sample_symmetric_placement(g, seed=rng.randint(0, 10**6))
            m = build_rigidity_matrix(fw)
            rf = rank(m, backend="float")
            re_ = rank(m, backend="exact")
            assert rf.rank == re_.rank, label
            assert rf.classification == re_.classification


def test_exact_backend_requires_exact_entries():
    fw = sample_symmetric_placement(base_graph("lc3"), seed=0)
    m = build_rigidity_matrix(fw)
    with pytest.raises(Exception):
        rank(m, backend="exact")


def test_classify_base_graphs_isostatic():
    for label in ["pinned1", "p1_fixed", "p1_swap", "lc3", "lc5", "lc6x2"]:
        r = classify(base_graph(label), trials=3, seed=0)
        assert r.classification == "isostatic", label
        assert r.isostatic and r.rigid and r.independent


def test_classify_fixed_edge_triangle_dependent_flexible():
    for seed in range(5):
        r = classify(c2_fixed_edge(), trials=3, seed=seed)
        assert r.classification == "dependent-flexible"
        assert (r.rank, r.num_rows, r.num_cols) == (5, 6, 6)


def test_classify_wheel_rigid_dependent():
    for seed in range(5):
        r = classify(c3_wheel(), trials=3, seed=seed)
        assert r.classification == "rigid-dependent"
        assert (r.rank, r.num_rows, r.num_cols) == (8, 9, 8)


def test_classify_ring_with_spokes_isostatic():
    r = classify(ring_with_spokes(5), trials=3, seed=0)
    assert r.classification == "isostatic"
    assert r.rank == 20


def test_classify_records_trials():
    r = classify(base_graph("lc3"), trials=4, seed=2)
    assert r.trials == 4
    assert len(r.trial_ranks) == 4
    assert r.rank == max(r.trial_ranks)


def test_motion_space_of_flexible_framework():
    g = c2_fixed_edge()
    fw = sample_symmetric_placement(g, seed=0)
    rep = motions(fw)
    assert rep.dimension == 1
    assert rep.residual < 1e-6
    # the motion must be orthogonal to every constraint row
    m = build_rigidity_matrix(fw)
    vel = rep.basis[0]
    for row in m.entries:
        dot = sum(
            row[2 * v] * vel[v][0] + row[2 * v + 1] * vel[v][1]
            for v in range(g.num_vertices)
        )
        assert abs(dot) < 1e-3


def test_motions_of_isostatic_framework_are_trivial():
    fw = sample_symmetric_placement(base_graph("p1_fixed"), seed=1)
    rep = motions(fw)
    assert rep.dimension == 0
    assert rep.basis == ()


def test_exact_motions_match_float_dimension():
    fw = sample_symmetric_placement(c2_fixed_edge(), seed=0)
    assert fw.exact
    a = motions(fw, backend="float")
    b = motions(fw, backend="exact")
    assert a.dimension == b.dimension == 1
    assert b.residual == 0


def test_check_framework_scales_and_still_flags_coincidence():
    fw = sample_symmetric_placement(c5_605(), seed=0)
    assert fw.graph.num_vertices == 605
    assert check_framework(fw) == ()

    g = SymmetricGraph(GroupSpec("cyclic", 1), 4, ((0, 1), (2, 3)))
    exact = Framework(g, ((3, 4), (7, 1), (3, 4), (3, 4)), ())
    assert check_framework(exact) == (
        "vertices 0 and 2 coincide",
        "vertices 0 and 3 coincide",
        "vertices 2 and 3 coincide",
    )
    # within tol * span of each other, on both sides of a cell boundary
    near = Framework(g, ((1e-12, 0.0), (-1e-12, 0.0), (0.0, 0.0), (9.0, 0.0)), ())
    assert check_framework(near) == (
        "vertices 0 and 1 coincide",
        "vertices 0 and 2 coincide",
        "vertices 1 and 2 coincide",
    )

    # a loop fixed by both mirrors of d2 has opposite signs under them
    both = SymmetricGraph(
        GroupSpec("dihedral", 2),
        1,
        (),
        (Loop(0, 0, sigma_label="+"),),
        rotation_vertex_perm=(0,),
        rotation_loop_perm={0: 0},
        reflection_vertex_perm=(0,),
        reflection_loop_perm={0: 0},
    )
    for graph in (both, d3_flower()):
        assert check_framework(sample_symmetric_placement(graph, seed=0)) == ()


def test_sampling_builds_the_action_table_once(monkeypatch):
    graph = c5_605()
    calls = []
    original = symgraph.element_tables

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(symgraph, "element_tables", counted)
    monkeypatch.setattr(realize, "element_tables", counted)
    sample_symmetric_placement(graph, seed=0)
    assert len(calls) <= 2


def _equivalence_graphs():
    yield "c3_wheel", c3_wheel()
    yield "c2_fixed_edge", c2_fixed_edge()
    yield "ring_with_spokes", ring_with_spokes(5)
    yield "mirror_pair", mirror_pair()
    yield "mirror_fixed_vertex", mirror_fixed_vertex()
    for order in range(1, 7):
        for label in default_bases(GroupSpec("cyclic", order)):
            yield label, base_graph(label)
    yield "negative_control", negative_control()
    yield "d3_flower", d3_flower()
    # the float cut is known to lose rank here; only agreement is checked
    yield "c2 steps=150 seed=2", generate_random("c2", steps=150, seed=2).graph


def test_block_rank_matches_dense_svd():
    for label, graph in _equivalence_graphs():
        group = graph.group
        if group.rotation_order > 1:
            h = GroupElement(1, False)
        else:
            h = GroupElement(0, group.has_reflection)
        for seed in range(3):
            m = build_rigidity_matrix(sample_symmetric_placement(graph, seed=seed))
            # a sampled placement is symmetric, so it is split under <h>
            assert _orbits_under(m, h, DEFAULT_TOL) is not None, (label, seed)
            shape = (m.num_rows, m.num_cols)
            dense = np.linalg.svd(m.to_array(), compute_uv=False)
            blocks = _block_spectrum(m)
            assert blocks.shape == dense.shape, label
            assert np.max(np.abs(blocks - dense), initial=0.0) <= 1e-12 * dense[0], label
            want = _float_rank(dense, DEFAULT_TOL, shape)[0]
            assert rank(m).rank == want, (label, seed)


def _assert_block_rank_is_dense(m, label):
    dense = np.linalg.svd(m.to_array(), compute_uv=False)
    blocks = _block_spectrum(m)
    assert np.max(np.abs(blocks - dense), initial=0.0) <= 1e-12 * dense[0], label
    assert rank(m).rank == _float_rank(dense, DEFAULT_TOL, m.to_array().shape)[0], label


def test_block_rank_of_a_placement_off_symmetry_is_the_dense_rank():
    # the README's c2 document with vertex 2 moved off -p1: the triangle is
    # no longer collinear, so the given placement has rank 6, while its
    # symmetric version (p2 = -p1) has rank 5
    g = c2_fixed_edge()
    q = ((1, 0), (2, 3), (-2, -3))
    symmetric = build_rigidity_matrix(Framework(g, ((0, 0), (5, 1), (-5, -1)), q))
    moved = build_rigidity_matrix(Framework(g, ((0, 0), (5, 1), (-4, -2)), q))
    assert rank(symmetric).rank == 5
    assert rank(moved).rank == 6
    _assert_block_rank_is_dense(moved, "c2 moved vertex")

    # one point or one normal moved, per fixture, including mirror-pinned
    # normals and rotation-fixed vertices
    rng = random.Random(5)
    for label, graph in (
        ("c3_wheel", c3_wheel()),
        ("c2_fixed_edge", c2_fixed_edge()),
        ("mirror_pair", mirror_pair()),
        ("mirror_fixed_vertex", mirror_fixed_vertex()),
        ("d3_flower", d3_flower()),
        ("c5 lc5", base_graph("lc5")),
    ):
        fw = sample_symmetric_placement(graph, seed=1)
        for v in range(graph.num_vertices):
            p = list(fw.p)
            p[v] = (p[v][0] + rng.randint(1, 9), p[v][1] - rng.randint(1, 9))
            _assert_block_rank_is_dense(
                build_rigidity_matrix(Framework(graph, p, fw.q)), (label, "p", v)
            )
        for i in range(len(graph.loops)):
            q = list(fw.q)
            q[i] = (q[i][0] + rng.randint(1, 9) * 1000, q[i][1])
            _assert_block_rank_is_dense(
                build_rigidity_matrix(Framework(graph, fw.p, q)), (label, "q", i)
            )


def test_block_rank_of_a_graph_with_an_invalid_action():
    # the half-turn sends edge 0-1 to 0-2, which is not an edge
    g = SymmetricGraph(GroupSpec("cyclic", 2), 3, ((0, 1),), (), rotation_vertex_perm=(0, 2, 1))
    m = build_rigidity_matrix(Framework(g, ((0, 0), (1, 2), (3, 1)), ()))
    assert rank(m).rank == 1
    _assert_block_rank_is_dense(m, "invalid action")

    # the half-turn swaps two loops at vertex 1, which it sends to vertex 2
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        3,
        (),
        (Loop(0, 1), Loop(1, 1)),
        rotation_vertex_perm=(0, 2, 1),
        rotation_loop_perm={0: 1, 1: 0},
    )
    m = build_rigidity_matrix(Framework(g, ((0, 0), (1, 2), (-1, -2)), ((3, 1), (-3, -1))))
    assert rank(m).rank == 1
    _assert_block_rank_is_dense(m, "loop sent off its vertex")

    # a "half-turn" of order 3; the loop normals alternate in sign under it
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        3,
        (),
        (Loop(0, 0), Loop(1, 1), Loop(2, 2)),
        rotation_vertex_perm=(1, 2, 0),
        rotation_loop_perm={0: 1, 1: 2, 2: 0},
    )
    m = build_rigidity_matrix(Framework(g, ((0, 0), (4, 1), (1, 3)), ((1, 0),) * 3))
    assert rank(m).rank == 3
    _assert_block_rank_is_dense(m, "generator of the wrong order")
