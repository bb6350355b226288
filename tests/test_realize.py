"""Symmetric placements, rigidity matrices, rank backends, and motions."""

import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from conftest import (
    action_tuples,
    c2_fixed_edge,
    c3_wheel,
    d2_loop_fixed_by_both_mirrors,
    d3_flower,
    mirror_fixed_vertex,
    mirror_pair,
    ring_with_spokes,
)
from slcrigid import (
    DegenerateInputError,
    RangeError,
    Framework,
    GroupSpec,
    Loop,
    SymmetricGraph,
    UnsupportedBackendError,
    base_graph,
    build_rigidity_matrix,
    check_framework,
    check_tight,
    classify,
    decompose,
    default_bases,
    fixed_counts,
    generate_random,
    motions,
    orbits,
    rank,
    sample_symmetric_placement,
    symgraph,
)
from slcrigid import document, realize
from slcrigid.realize import _kernel, _rank_mod
from slcrigid.symgraph import mirror_sign, stabilizers
from slcrigid.selftest import negative_control
from slcrigid.svgout import render_svg


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
        for e, (vp, _) in zip(group.elements(), action_tuples(g)):
            tau = group.tau(e)
            for v in range(g.num_vertices):
                x, y = fw.p[v]
                gx = tau[0][0] * x + tau[0][1] * y
                gy = tau[1][0] * x + tau[1][1] * y
                ix, iy = fw.p[vp[v]]
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


def _dense(m):
    """The matrix as dense row tuples, built from ``m.coo``; exact values
    stay Python ints or Fractions (an object array), zeros are int 0."""
    rows, cols, vals = m.coo
    a = np.zeros((m.num_rows, m.num_cols), dtype=object)
    a[rows, cols] = vals.tolist()
    return tuple(map(tuple, a.tolist()))


def test_matrix_rows_follow_edges_then_loops():
    g = c2_fixed_edge()
    fw = sample_symmetric_placement(g, seed=0)
    m = build_rigidity_matrix(fw)
    assert m.num_rows == 6
    assert m.num_cols == 6
    # rows: edges 0-1, 0-2, 1-2, then loops 0, 1, 2
    assert g.edges == ((0, 1), (0, 2), (1, 2)) and g.loop_ids == (0, 1, 2)
    entries = _dense(m)
    # edge rows: difference vector at one end, negated at the other
    row = entries[0]
    du = (fw.p[0][0] - fw.p[1][0], fw.p[0][1] - fw.p[1][1])
    assert (row[0], row[1]) == du
    assert (row[2], row[3]) == (-du[0], -du[1])
    assert (row[4], row[5]) == (0, 0)
    # loop rows: the normal in that vertex block only
    lrow = entries[3]
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
    with pytest.raises(UnsupportedBackendError):
        rank(m, backend="exact")
    with pytest.raises(UnsupportedBackendError):
        motions(fw, backend="exact")


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
    # a rank never exceeds min(rows, cols), so a full-rank trial ends the
    # search; trials stays the requested maximum
    r = classify(base_graph("lc3"), trials=4, seed=2)
    assert r.trials == 4
    assert r.trial_ranks == (6,)
    r = classify(c2_fixed_edge(), trials=3, seed=0)
    assert r.trials == 3
    assert len(r.trial_ranks) == 3
    assert r.rank == max(r.trial_ranks) == 5


def test_motion_space_of_flexible_framework():
    g = c2_fixed_edge()
    fw = sample_symmetric_placement(g, seed=0)
    rep = motions(fw)
    assert rep.dimension == 1
    assert rep.residual < 1e-6
    # the motion must be orthogonal to every constraint row
    m = build_rigidity_matrix(fw)
    vel = rep.basis[0]
    for row in _dense(m):
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
    # no rows: every velocity is a motion
    empty = Framework(SymmetricGraph(GroupSpec("cyclic", 1), 2, ()), ((0, 0), (1, 2)), ())
    assert motions(empty, backend="float").dimension == 4
    assert motions(empty, backend="exact").dimension == 4


def test_float_backend_refuses_a_negative_or_infinite_tolerance():
    graph = c2_fixed_edge()
    fw = sample_symmetric_placement(graph, seed=0)
    m = build_rigidity_matrix(fw)
    for tol in (-1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(RangeError):
            rank(m, backend="float", tol=tol)
        with pytest.raises(RangeError):
            motions(fw, backend="float", tol=tol)
    # zero is a cut, if one that keeps rounding errors
    assert rank(m, backend="float", tol=0.0).tolerance == 0.0
    # the exact backend reads no tolerance
    assert rank(m, backend="exact", tol=-1.0).rank == 5


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
    for graph in (d2_loop_fixed_by_both_mirrors(), d3_flower()):
        assert check_framework(sample_symmetric_placement(graph, seed=0)) == ()

    # integers under c3's irrational matrices: only the origin maps exactly
    c3 = SymmetricGraph(GroupSpec("cyclic", 3), 4, rotation_vertex_perm=(1, 2, 0, 3))
    assert check_framework(Framework(c3, ((1, 0), (0, 1), (-1, -1), (0, 0)), ())) == (
        "c3 moves vertex 0 off its image",
        "c3 moves vertex 1 off its image",
        "c3 moves vertex 2 off its image",
        "c3^2 moves vertex 0 off its image",
        "c3^2 moves vertex 1 off its image",
        "c3^2 moves vertex 2 off its image",
    )


def _count_table_builds(monkeypatch) -> list:
    """The graphs ``element_tables`` is called on from now on, in order."""
    calls = []
    original = symgraph.element_tables

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(symgraph, "element_tables", counted)
    return calls


def test_sampling_builds_the_action_table_once(monkeypatch):
    graph = replace(c5_605())  # a fresh object: nothing is kept on it yet
    calls = _count_table_builds(monkeypatch)
    sample_symmetric_placement(graph, seed=0)
    assert len(calls) == 1 and calls[0] is graph
    # every later reader shares the table kept on the graph
    check_tight(graph)
    classify(graph, trials=3)
    orbits(graph)
    fixed_counts(graph)
    stabilizers(graph, "vertex")
    assert len(calls) == 1


def test_decompose_builds_each_graph_table_at_most_once(monkeypatch):
    graph = generate_random("c3", steps=20, seed=0).graph
    calls = _count_table_builds(monkeypatch)
    dec = decompose(graph)
    assert dec.total_moves == 20
    # calls holds every graph, so no id is reused by a later object
    assert calls and len({id(g) for g in calls}) == len(calls)


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
    yield "d2_loop_fixed_by_both_mirrors", d2_loop_fixed_by_both_mirrors()
    # n = 301, where the float cut loses rank (600 of 602)
    yield "c2 steps=150 seed=2", generate_random("c2", steps=150, seed=2).graph


def _dense_rank_mod(entries, prime):
    """Rank modulo a prime by Gauss-Jordan steps on whole rows."""
    a = np.array(entries, dtype=np.int64).reshape(len(entries), -1) % prime
    r = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, prime) % prime
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        a[others] = (a[others] - a[others, c : c + 1] * a[r]) % prime
        r += 1
        if r == a.shape[0]:
            break
    return r


def test_exact_rank_mod_p_matches_dense_rank_mod_p():
    for label, graph in _equivalence_graphs():
        for seed in range(3):
            fw = sample_symmetric_placement(graph, seed=seed, modular=True)
            m = build_rigidity_matrix(fw)
            want = _dense_rank_mod(_dense(m), fw.prime)
            assert rank(m, backend="exact").rank == want, (label, seed)


def _residues(graph, p, q):
    """The framework with the integer points and normals taken modulo the
    group's prime."""
    prime = graph.group.prime_field.prime
    return Framework(
        graph,
        [(x % prime, y % prime) for x, y in p],
        [(x % prime, y % prime) for x, y in q],
        prime,
    )


def _checked_rank(fw, label):
    """Exact rank of a residue framework, checked to be the dense rank of
    the whole matrix."""
    m = build_rigidity_matrix(fw)
    got = rank(m, backend="exact").rank
    assert got == _dense_rank_mod(_dense(m), fw.prime), label
    return got


def test_exact_rank_of_a_placement_off_symmetry_is_the_dense_rank():
    # the README's c2 document with vertex 2 moved off -p1: the triangle is
    # no longer collinear, so the given placement has rank 6, while its
    # symmetric version (p2 = -p1) has rank 5, over the reals and modulo p
    g = c2_fixed_edge()
    q = ((1, 0), (2, 3), (-2, -3))
    symmetric, moved = ((0, 0), (5, 1), (-5, -1)), ((0, 0), (5, 1), (-4, -2))
    assert rank(build_rigidity_matrix(Framework(g, symmetric, q))).rank == 5
    assert rank(build_rigidity_matrix(Framework(g, moved, q))).rank == 6
    assert rank(build_rigidity_matrix(_residues(g, symmetric, q)), backend="exact").rank == 5
    assert _checked_rank(_residues(g, moved, q), "c2 moved vertex") == 6

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
        fw = sample_symmetric_placement(graph, seed=1, modular=True)
        moves = []
        for v in range(graph.num_vertices):
            p = list(fw.p)
            p[v] = (p[v][0] + rng.randint(1, 9), p[v][1] - rng.randint(1, 9))
            moves.append(("p", v, _residues(graph, p, fw.q)))
        for i in range(len(graph.loops)):
            q = list(fw.q)
            q[i] = (q[i][0] + rng.randint(1, 9) * 1000, q[i][1])
            moves.append(("q", i, _residues(graph, fw.p, q)))
        for kind, i, moved in moves:
            m = build_rigidity_matrix(moved)
            want = _dense_rank_mod(_dense(m), moved.prime)
            assert rank(m, backend="exact").rank == want, (label, kind, i)


def test_block_rank_of_a_graph_with_an_invalid_action():
    # the half-turn sends edge 0-1 to 0-2, which is not an edge
    g = SymmetricGraph(GroupSpec("cyclic", 2), 3, ((0, 1),), (), rotation_vertex_perm=(0, 2, 1))
    assert _checked_rank(_residues(g, ((0, 0), (1, 2), (3, 1)), ()), "invalid action") == 1

    # the half-turn swaps two loops at vertex 1, which it sends to vertex 2
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        3,
        (),
        (Loop(0, 1), Loop(1, 1)),
        rotation_vertex_perm=(0, 2, 1),
        rotation_loop_perm={0: 1, 1: 0},
    )
    fw = _residues(g, ((0, 0), (1, 2), (-1, -2)), ((3, 1), (-3, -1)))
    assert _checked_rank(fw, "loop sent off its vertex") == 1

    # a "half-turn" of order 3: the orbit size 3 does not divide 2
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        3,
        (),
        (Loop(0, 0), Loop(1, 1), Loop(2, 2)),
        rotation_vertex_perm=(1, 2, 0),
        rotation_loop_perm={0: 1, 1: 2, 2: 0},
    )
    fw = _residues(g, ((0, 0), (4, 1), (1, 3)), ((1, 0),) * 3)
    assert _checked_rank(fw, "generator of the wrong order") == 3


PRIME = GroupSpec("cyclic", 3).prime_field.prime


def _triples(a):
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


def _random_residues(rng, shape, density):
    """A seeded random sparse matrix of residues, some rows combinations
    of others."""
    a = np.where(rng.random(shape) < density, rng.integers(1, PRIME, shape), 0)
    for i in range(0, shape[0], 5):
        if shape[0] > 2:
            j, k = rng.choice(shape[0], 2, replace=False)
            c, d = rng.integers(1, PRIME, 2)
            a[i] = (c * a[j] % PRIME + d * a[k] % PRIME) % PRIME
    return a


@pytest.mark.parametrize("seed", range(12))
def test_sparse_rank_mod_matches_dense_rank_mod(seed):
    rng = np.random.default_rng(seed)
    for shape in ((40, 25), (25, 40), (60, 60), (1, 30), (30, 1)):
        for density in (0.01, 0.04, 0.1, 0.5):
            a = _random_residues(rng, shape, density)
            want = _dense_rank_mod(a, PRIME)
            assert _rank_mod(*_triples(a), shape, PRIME) == want, (shape, density)


def test_sparse_rank_mod_of_empty_and_zero_matrices():
    empty = np.zeros(0, dtype=np.int64)
    for shape in ((0, 5), (5, 0), (0, 0), (4, 6)):
        assert _rank_mod(empty, empty, empty, shape, PRIME) == 0
    # explicit zeros, multiples of p and cancelling duplicates
    rows, cols = np.array([0, 1, 2, 2, 3]), np.array([0, 1, 2, 2, 5])
    vals = np.array([0, PRIME, 7, -7, -3 * PRIME])
    assert _rank_mod(rows, cols, vals, (4, 6), PRIME) == 0
    # residue matrices with no rows, and the empty graph's, with no columns
    # either
    for graph in (
        SymmetricGraph(GroupSpec("cyclic", 1), 2, (), ()),
        SymmetricGraph(GroupSpec("cyclic", 3), 3, (), (), rotation_vertex_perm=(1, 2, 0)),
    ):
        m = build_rigidity_matrix(sample_symmetric_placement(graph, modular=True))
        assert (m.num_rows, rank(m, backend="exact").rank) == (0, 0)
    empty = SymmetricGraph(GroupSpec("cyclic", 1), 0, (), ())
    r = rank(build_rigidity_matrix(sample_symmetric_placement(empty, modular=True)), backend="exact")
    assert (r.rank, r.classification) == (0, "isostatic")


@pytest.mark.parametrize("seed", range(6))
def test_sparse_rank_mod_sums_duplicates_of_any_residue(seed):
    # each entry split into two parts, negative or >= p, and cancelling
    # pairs added where the matrix is zero
    rng = np.random.default_rng(seed)
    a = _random_residues(rng, (30, 36), 0.08)
    rows, cols, vals = _triples(a)
    part = rng.integers(-3 * PRIME, 3 * PRIME, vals.size)
    zr, zc = np.nonzero(a == 0)
    pick = rng.choice(zr.size, 40, replace=False)
    noise = rng.integers(-3 * PRIME, 3 * PRIME, pick.size)
    got = _rank_mod(
        np.concatenate([rows, rows, zr[pick], zr[pick]]),
        np.concatenate([cols, cols, zc[pick], zc[pick]]),
        np.concatenate([part, vals - part, noise, -noise + PRIME * rng.integers(-2, 3, pick.size)]),
        a.shape,
        PRIME,
    )
    assert got == _dense_rank_mod(a, PRIME)
    # each entry once, shifted by a multiple of p
    shifted = vals + PRIME * rng.integers(-3, 4, vals.size)
    assert _rank_mod(rows, cols, shifted, a.shape, PRIME) == got


def test_sparse_rank_mod_of_a_block_diagonal_system():
    rng = np.random.default_rng(7)
    blocks = [_random_residues(rng, shape, 0.1) for shape in ((20, 20), (15, 25), (30, 12))]
    deficient = _random_residues(rng, (18, 18), 0.2)
    deficient[3] = (2 * deficient[5] + 3 * deficient[9]) % PRIME
    blocks.append(deficient)
    want = sum(_dense_rank_mod(b, PRIME) for b in blocks)
    assert _dense_rank_mod(deficient, PRIME) < 18
    parts, nrows, ncols = [], 0, 0
    for b in blocks:
        rows, cols, vals = _triples(b)
        parts.append((rows + nrows, cols + ncols, vals))
        nrows, ncols = nrows + b.shape[0], ncols + b.shape[1]
    assert (nrows, ncols) == (83, 75)
    rows, cols, vals = (np.concatenate([p[i] for p in parts]) for i in range(3))
    assert _rank_mod(rows, cols, vals, (nrows, ncols), PRIME) == want


def test_sparse_rank_mod_of_entries_p_minus_one():
    # products (p-1)^2 are the largest the kernel forms
    assert _rank_mod(*_triples(np.full((9, 7), PRIME - 1)), (9, 7), PRIME) == 1
    rng = np.random.default_rng(3)
    for shape in ((20, 20), (30, 18)):
        a = (rng.random(shape) < 0.2) * (PRIME - 1)
        assert _rank_mod(*_triples(a), shape, PRIME) == _dense_rank_mod(a, PRIME)


def test_sparse_rank_mod_finishes_densely_only_when_fill_is_high(monkeypatch):
    calls = []
    dense = realize._rank_mod_dense
    monkeypatch.setattr(
        realize, "_rank_mod_dense", lambda a, p: calls.append(a.shape) or dense(a, p)
    )
    # a scaled permutation, tall: one round, no fill, never dense
    rng = np.random.default_rng(0)
    rows, cols = rng.permutation(200)[:150], rng.permutation(150)
    assert _rank_mod(rows, cols, rng.integers(1, PRIME, 150), (200, 150), PRIME) == 150
    assert calls == []
    # sparse at first, dense after fill
    a = _random_residues(rng, (80, 80), 0.04)
    assert _rank_mod(*_triples(a), a.shape, PRIME) == _dense_rank_mod(a, PRIME)
    assert len(calls) == 1 and calls[0][0] < 80


def test_sparse_rank_mod_needs_few_rounds_at_n_501(monkeypatch):
    # a count, not a time: each round after the first merge is one batch
    # of pivots
    merges = []
    merge = realize._merge_mod
    monkeypatch.setattr(realize, "_merge_mod", lambda *a: merges.append(1) or merge(*a))
    graph = generate_random("c2", steps=250, seed=2).graph
    m = build_rigidity_matrix(sample_symmetric_placement(graph, seed=0, modular=True))
    assert rank(m, backend="exact").rank == 1002
    assert len(merges) - 1 <= 20


@pytest.mark.parametrize("seed", range(3))
def test_classify_is_isostatic_in_one_trial_at_c3_n_303(seed):
    graph = generate_random("c3", steps=100, seed=seed).graph
    assert graph.num_vertices == 303
    r = classify(graph)
    assert r.classification == "isostatic"
    assert r.trial_ranks == (606,)
    if seed == 0:
        fw = sample_symmetric_placement(graph, seed=0, modular=True)
        assert _dense_rank_mod(_dense(build_rigidity_matrix(fw)), fw.prime) == 606


def _mirror_doubled(graph):
    """cs graph: two copies of a plain graph, swapped by the mirror."""
    n, loops = graph.num_vertices, graph.loops
    return SymmetricGraph(
        GroupSpec("reflection", 2),
        2 * n,
        graph.edges + tuple((u + n, v + n) for u, v in graph.edges),
        tuple(Loop(i, l.vertex) for i, l in enumerate(loops))
        + tuple(Loop(i + len(loops), l.vertex + n) for i, l in enumerate(loops)),
        reflection_vertex_perm=tuple(range(n, 2 * n)) + tuple(range(n)),
        reflection_loop_perm={
            **{i: i + len(loops) for i in range(len(loops))},
            **{i + len(loops): i for i in range(len(loops))},
        },
    )


def _rational_rank(entries):
    """Rank over the rationals by Gaussian elimination in Fractions."""
    m = [[Fraction(x) for x in row] for row in entries]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_exact_rank_of_a_given_placement_tries_modulo_p_first(monkeypatch):
    lifts = []
    monkeypatch.setattr(realize, "_kernel", lambda *args: lifts.append(1) or _kernel(*args))
    graphs = [
        generate_random("c1", steps=10, seed=1).graph,
        generate_random("c2", steps=10, seed=1).graph,
        generate_random("c4", steps=5, seed=1).graph,
        _mirror_doubled(generate_random("c1", steps=6, seed=2).graph),
        mirror_pair(),
        c2_fixed_edge(),
    ]
    deficient = 0
    for graph in graphs:
        label = graph.group.name
        fw = sample_symmetric_placement(graph, seed=3)
        frac = Framework(graph, [(Fraction(x, 3), Fraction(y, 5)) for x, y in fw.p], fw.q)
        line = Framework(graph, [(v + 1, 3 * v + 3) for v in range(graph.num_vertices)], fw.q)
        for placed in (fw, frac, line):
            m = build_rigidity_matrix(placed)
            want = _rational_rank(_dense(m))
            full = want == min(m.num_rows, m.num_cols)
            lifts.clear()
            assert rank(m, backend="exact").rank == want, label
            assert lifts == ([] if full else [1]), label
            deficient += not full
    assert deficient >= 4


def test_exact_motions_are_the_nullspace_basis_reduced_on_the_free_columns():
    graph = generate_random("c2", steps=50, seed=1).graph
    fw = sample_symmetric_placement(graph, seed=1)
    line = Framework(graph, [(v + 1, 3 * v + 3) for v in range(graph.num_vertices)], fw.q)
    # sha256 of the motion documents, as the Gauss-Jordan nullspace wrote them
    digests = {
        "sampled": "a1094471706fa152cee88ba627e3511f08f549feee71c4693eef146fb36f6863",
        "collinear": "371e276f9b2b09b8d5cefd003cc4dbed91d13b893e2eaf18cbd1b7a8677e0ca8",
    }
    for label, placed in (("sampled", fw), ("collinear", line)):
        m = build_rigidity_matrix(placed)
        rep = motions(placed, backend="exact")
        vecs = [[x for pair in motion for x in pair] for motion in rep.basis]
        for row in _dense(m):
            nz = [(c, a) for c, a in enumerate(row) if a]
            assert all(sum(a * vec[c] for c, a in nz) == 0 for vec in vecs), label
        # rank modulo p bounds the rank over Q from below, so these many
        # independent null vectors span the nullspace
        rank_p = _dense_rank_mod(_dense(m), PRIME)
        assert rep.dimension == len(vecs) == m.num_cols - rank_p, label
        # each vector's last nonzero column is free (spanned by the columns
        # before it); the vectors are the identity there
        free = [max(c for c, x in enumerate(vec) if x) for vec in vecs]
        for i, vec in enumerate(vecs):
            assert [vec[f] for f in free] == [int(i == k) for k in range(len(free))]
        text = document.dumps(document.motion_report_to_dict(rep))
        assert hashlib.sha256(text.encode()).hexdigest() == digests[label], label
    assert rep.dimension == 76


def _collinear(steps):
    """c2 steps/0 at the collinear points (v + 1, 3v + 3), with the loop
    normals of its seed-0 sample."""
    graph = generate_random("c2", steps=steps, seed=0).graph
    fw = sample_symmetric_placement(graph, seed=0)
    return Framework(graph, [(v + 1, 3 * v + 3) for v in range(graph.num_vertices)], fw.q)


def _trimmed(steps):
    """The seed-0 sample of c2 steps/0 with its last edge orbit removed: a
    generic placement with a deficit, whose motions have large entries."""
    graph = generate_random("c2", steps=steps, seed=0).graph
    gone = set(orbits(graph).edges[-1])
    graph = replace(graph, edges=tuple(e for e in graph.edges if e not in gone))
    return sample_symmetric_placement(graph, seed=0)


def test_exact_answers_on_deficient_placements_are_the_bareiss_ones(monkeypatch):
    # rank, motion dimension and sha256 of the motion document, as the
    # fraction-free (Bareiss) echelon and its Fraction back-substitution
    # gave them
    pinned = {
        ("collinear", 60): (159, 85, "10a031141aa3b7d5ff8301add9493dc4daabafcf670c407e08dc8fc0b9546a2f"),
        ("collinear", 150): (379, 225, "f0a793a0ec209e1f876a36f36e760e5a136def368d5548145a6958afafd693fe"),
        ("trimmed", 15): (62, 2, "f5396f228cf9bd9119ac18bd27a34fda1244086a2f5eedd7718d337f1b7959be"),
        ("trimmed", 30): (122, 2, "0a4440088b35433e9205f375362eb4a963a1adb26ff3cf13c68601ec46c405bb"),
    }
    primes = []
    dense = realize._rank_mod_dense
    monkeypatch.setattr(
        realize, "_rank_mod_dense", lambda a, p, reduced=False: primes.append(reduced) or dense(a, p, reduced)
    )
    for (kind, steps), (want_rank, dim, digest) in pinned.items():
        fw = (_collinear if kind == "collinear" else _trimmed)(steps)
        assert rank(build_rigidity_matrix(fw)).rank == want_rank, (kind, steps)
        primes.clear()
        rep = motions(fw, backend="exact")
        text = document.dumps(document.motion_report_to_dict(rep))
        assert rep.dimension == dim, (kind, steps)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (kind, steps)
        if (kind, steps) == ("trimmed", 15):
            # entries of up to 322 bits over 322 bits: more than 16 primes
            assert primes.count(True) > 16


def _kernel_of(dense):
    """The lifted kernel of a small integer matrix given by its rows."""
    a = np.array(dense, dtype=object)
    rows, cols = np.nonzero(a)
    return _kernel(rows, cols, a[rows, cols], a.shape)


def test_lifted_kernel_drops_primes_with_fewer_or_later_pivots(monkeypatch):
    # the first and the second prime tried each divide an entry: modulo it
    # the first matrix loses its second pivot, and the second's row reads
    # (0, 1, 0), its pivot one column late.  Kept, that prime's residues
    # would be wrong, and more primes would be needed to outvote them
    primes = []
    dense = realize._rank_mod_dense
    monkeypatch.setattr(
        realize, "_rank_mod_dense", lambda a, p, reduced=False: primes.append(p) or dense(a, p, reduced)
    )
    for big in (2**31 - 1, 2_147_483_629):
        primes.clear()
        assert _kernel_of([[1, 0, 0], [0, big, 0]]) == [{2: 1}]
        # one prime dropped, two kept
        assert len(primes) == 3 and big in primes
        primes.clear()
        # 1 / big needs four primes: two make sqrt(M / 2) about 2**30.5
        assert _kernel_of([[big, 1, 0]]) == [{1: 1, 0: Fraction(-1, big)}, {2: 1}]
        assert len(primes) == 5 and big in primes


def test_lifted_kernel_is_checked_before_it_is_returned():
    # modulo the first two primes 2**40 + 1 reconstructs as
    # 536868475 / 536870907, which the exact check refuses
    assert _kernel_of([[1, -(2**40 + 1)]]) == [{1: 1, 0: 2**40 + 1}]


def test_exact_rank_and_motions_of_random_deficient_placements():
    # integer points on two lines and normals drawn from a few values, so
    # that minors vanish by accident; the rank is the one of Gaussian
    # elimination in Fractions, and the motions span the rest
    rng = random.Random(11)
    deficient = 0
    for steps in (3, 6, 10, 15, 30):
        graph = generate_random("c2", steps=steps, seed=steps).graph
        for _ in range(3):
            xs = [rng.randint(-30, 30) for _ in range(graph.num_vertices)]
            p = [(x, rng.choice((2 * x + 1, 3 - x))) for x in xs]
            q = [(rng.randint(-1, 1), rng.randint(1, 2)) for _ in graph.loops]
            fw = Framework(graph, p, q)
            try:
                m = build_rigidity_matrix(fw)
            except DegenerateInputError:  # an edge with coincident ends
                continue
            dense = _dense(m)
            want = _rational_rank(dense)
            assert rank(m).rank == want, steps
            rep = motions(fw, backend="exact")
            assert rep.dimension == m.num_cols - want, steps
            vecs = [[x for pair in motion for x in pair] for motion in rep.basis]
            for row in dense:
                nz = [(c, a) for c, a in enumerate(row) if a]
                assert all(sum(a * vec[c] for c, a in nz) == 0 for vec in vecs), steps
            deficient += want < min(m.num_rows, m.num_cols)
    assert deficient >= 5


def test_framework_refuses_non_finite_float_coordinates():
    # render_svg wrote nan 8 times for p[2] = (NaN, 1.0)
    graph = generate_random("c2", steps=3, seed=0).graph
    fw = sample_symmetric_placement(graph, seed=0)
    for bad in (math.nan, math.inf, -math.inf):
        p = list(fw.p)
        p[2] = (bad, 1.0)
        with pytest.raises(RangeError):
            Framework(graph, p, fw.q)
        with pytest.raises(RangeError):
            Framework(graph, fw.p, ((1.0, bad),) + fw.q[1:])
    # floats that are finite are fine, and integers past any float too
    Framework(graph, [(x + 0.5, y) for x, y in fw.p], fw.q)
    Framework(graph, [(x * 10**400, y) for x, y in fw.p], fw.q)


def test_rank_is_exact_by_default_unless_the_coordinates_are_floats():
    graph = generate_random("c2", steps=150, seed=2).graph
    m = build_rigidity_matrix(sample_symmetric_placement(graph, seed=2))
    # the float cut says 601 of 602 here
    assert (rank(m).backend, rank(m).rank) == ("exact", 602)
    c3 = sample_symmetric_placement(generate_random("c3", steps=4, seed=7).graph)
    assert rank(build_rigidity_matrix(c3)).backend == "float"
    residues = sample_symmetric_placement(graph, seed=2, modular=True)
    assert rank(build_rigidity_matrix(residues)).backend == "exact"


def test_motions_follow_the_default_of_rank():
    # motions(fw) took the float cut here, one motion, where rank says 602
    # of 602
    graph = generate_random("c2", steps=150, seed=2).graph
    fw = sample_symmetric_placement(graph, seed=2)
    rep = motions(fw)
    assert (rep.dimension, rep.backend) == (0, "exact")
    c3 = sample_symmetric_placement(generate_random("c3", steps=4, seed=7).graph)
    assert motions(c3).backend == "float"
    for call in (lambda: rank(build_rigidity_matrix(fw), backend="gaussian"), lambda: motions(fw, backend="gaussian")):
        with pytest.raises(UnsupportedBackendError, match="unknown backend 'gaussian'"):
            call()


def test_an_integer_past_the_float_range_stays_exact():
    # the reader's finiteness check, the float span of check_framework and
    # render_svg's floats raised OverflowError on it
    graph = generate_random("c2", steps=3, seed=0).graph
    fw = sample_symmetric_placement(graph, seed=0)
    p = [list(pt) for pt in fw.p]
    p[1][0] = 10**400
    big = Framework(graph, p, fw.q)
    assert rank(build_rigidity_matrix(big)).rank == 16
    assert motions(big).dimension == 0
    assert check_framework(big) == ("c2 moves vertex 0 off its image", "c2 moves vertex 1 off its image")
    with pytest.raises(DegenerateInputError, match="span is not finite"):
        render_svg(big)
    # beside a float coordinate it is a float, and not a finite one
    p[0][0] = 0.5
    with pytest.raises(RangeError, match="float coordinates must be finite"):
        Framework(graph, p, fw.q)


def _mod_apply(mat, vec, prime):
    (a, b), (c, d) = mat
    return ((a * vec[0] + b * vec[1]) % prime, (c * vec[0] + d * vec[1]) % prime)


def test_modular_sample_is_equivariant():
    for label, graph in _equivalence_graphs():
        group = graph.group
        for seed in range(3):
            fw = sample_symmetric_placement(graph, seed=seed, modular=True)
            p = fw.prime
            assert p == group.prime_field.prime and fw.exact, label
            assert len(set(fw.p)) == graph.num_vertices, (label, "coincident points")
            assert all(0 < max(vec) for vec in fw.q), (label, "zero normal")
            q_by_id = dict(zip(graph.loop_ids, fw.q))
            for elem, (vp, lp) in zip(group.elements(), action_tuples(graph)):
                tau = group.tau_mod(elem)
                for v in range(graph.num_vertices):
                    assert _mod_apply(tau, fw.p[v], p) == fw.p[vp[v]], label
                for vec, image_id in zip(fw.q, lp):
                    img, target = _mod_apply(tau, vec, p), q_by_id[image_id]
                    assert img in (target, (-target[0] % p, -target[1] % p)), label
            for loop, vec, stab in zip(graph.loops, fw.q, stabilizers(graph, "loop")):
                for mirror in (e for e in stab if e.ref):
                    sign = mirror_sign(group, loop, stab, mirror)
                    want = (sign * vec[0] % p, sign * vec[1] % p)
                    assert _mod_apply(group.tau_mod(mirror), vec, p) == want, label
            assert check_framework(fw) == (), label


def test_modular_framework_states_its_prime():
    graph = base_graph("lc3")
    fw = sample_symmetric_placement(graph, seed=0, modular=True)
    with pytest.raises(Exception):
        Framework(graph, fw.p, fw.q, fw.prime + 2)
    with pytest.raises(Exception):
        Framework(graph, ((fw.prime, 0),) + fw.p[1:], fw.q, fw.prime)
    with pytest.raises(Exception):
        rank(build_rigidity_matrix(fw), backend="float")
    # a residue framework moved off symmetry is ranked as it stands
    moved = Framework(graph, ((fw.p[0][0] + 1, fw.p[0][1]),) + fw.p[1:], fw.q, fw.prime)
    m = build_rigidity_matrix(moved)
    assert rank(m, backend="exact").rank == _dense_rank_mod(_dense(m), fw.prime)


def _reference_rows(fw):
    """The rows as the per-row build made them: (u, p_u - p_v) and
    (v, p_v - p_u) per edge u-v, modulo the prime if any; (v, q) per loop."""
    red = (lambda c: c % fw.prime) if fw.prime else (lambda c: c)
    rows = []
    for u, v in fw.graph.edges:
        d = (fw.p[u][0] - fw.p[v][0], fw.p[u][1] - fw.p[v][1])
        rows.append(((u, (red(d[0]), red(d[1]))), (v, (red(-d[0]), red(-d[1])))))
    rows += [((loop.vertex, vec),) for loop, vec in zip(fw.graph.loops, fw.q)]
    return tuple(rows)


def test_matrix_arrays_hold_the_rows():
    lc3 = base_graph("lc3")
    fw = sample_symmetric_placement(lc3, seed=0, modular=True)
    # the residue framework moved off symmetry, as ranked above
    moved = Framework(lc3, ((fw.p[0][0] + 1, fw.p[0][1]),) + fw.p[1:], fw.q, fw.prime)
    rational = Framework(
        c2_fixed_edge(),
        ((Fraction(1, 3), 2), (5, Fraction(-7, 2)), (-4, 1)),
        ((1, 0), (Fraction(2, 5), 3), (-2, -3)),
    )
    for framework in (
        fw,
        moved,
        sample_symmetric_placement(generate_random("c5", steps=20, seed=1).graph, modular=True),
        sample_symmetric_placement(generate_random("c3", steps=8, seed=0).graph),  # floats
        sample_symmetric_placement(generate_random("c4", steps=8, seed=0).graph),  # integers
        sample_symmetric_placement(mirror_pair(), seed=1, modular=True),
        rational,
    ):
        m = build_rigidity_matrix(framework)
        want = _reference_rows(framework)
        flat = [(i, 2 * v + k, c) for i, row in enumerate(want) for v, pair in row for k, c in enumerate(pair)]
        rows, cols, vals = m.coo
        assert (rows.tolist(), cols.tolist(), vals.tolist()) == tuple(map(list, zip(*flat)))
        assert np.array_equal(m.to_array(), np.array(_dense(m), dtype=float))


def test_degenerate_rows_are_named_in_row_order():
    g = SymmetricGraph(
        GroupSpec("cyclic", 1), 3, ((0, 1), (0, 2), (1, 2)), (Loop(0, 0), Loop(4, 1), Loop(7, 2))
    )
    prime = g.group.prime_field.prime
    q = ((1, 0), (1, 1), (0, 1))
    for p, normals, message in (
        (((1, 1), (2, 1), (2, 1)), q, r"edge \(1, 2\) has coincident endpoints"),
        (((1, 1), (1, 1), (1, 1)), q, r"edge \(0, 1\) has coincident endpoints"),
        (((1, 1), (2, 1), (3, 1)), ((1, 0), (0, 0), (0, 0)), "loop 4 has zero normal"),
    ):
        for given in (Framework(g, p, normals), Framework(g, p, normals, prime)):
            with pytest.raises(DegenerateInputError, match=message):
                build_rigidity_matrix(given)
    # equal modulo the prime only
    apart = Framework(g, ((1, 1), (2, 1), (2 + prime, 1)), q)
    assert build_rigidity_matrix(apart).num_rows == 6
    with pytest.raises(DegenerateInputError, match=r"edge \(1, 2\)"):
        build_rigidity_matrix(_residues(g, apart.p, q))


def test_batch_inverse_is_the_inverse_of_each_residue():
    rng = random.Random(0)
    for prime in (PRIME, GroupSpec("cyclic", 5).prime_field.prime, 7):
        for size in (0, 1, 2, 3, 10, 64, 150, 457):
            x = [rng.randrange(1, prime) for _ in range(size)]
            got = realize._inverse_mod(np.array(x, dtype=np.int64), prime)
            assert got.dtype == np.int64
            assert got.tolist() == [pow(c, -1, prime) for c in x], (prime, size)


def test_integer_samples_are_unchanged():
    # the seed-2 frameworks of the integral groups, as before the sampler
    # learned residues; generated placements and benchmark expectations
    # rely on them
    for graph, digest in (
        (c2_fixed_edge(), "65b6f879e49edec7"),
        (d2_loop_fixed_by_both_mirrors(), "a10d0b1e4ee14d7a"),
        (mirror_fixed_vertex(), "09431c66d8733fcd"),
        (mirror_pair(), "5fc74e805d8d6322"),
        (generate_random("c4", steps=20, seed=3).graph, "a04741005788f17a"),
    ):
        fw = sample_symmetric_placement(graph, seed=2)
        assert hashlib.sha256(repr((fw.p, fw.q)).encode()).hexdigest()[:16] == digest


def test_sampled_arrays_are_those_of_the_same_framework_given():
    # int64 residues, Python ints (object) and floats, whichever way the
    # framework was made; integers past 2**63 stay exact
    c4 = generate_random("c4", steps=8, seed=0).graph
    big = sample_symmetric_placement(c4, seed=1, scale=2**70)
    assert max(abs(c) for pt in big.p for c in pt) > 2**63
    assert check_framework(big) == ()
    assert rank(build_rigidity_matrix(big), backend="exact").rank == classify(c4).rank
    for fw, dtype in (
        (sample_symmetric_placement(c4, seed=1, modular=True), np.int64),
        (sample_symmetric_placement(c4, seed=1), object),
        (big, object),
        (sample_symmetric_placement(generate_random("c3", steps=8, seed=0).graph), np.float64),
    ):
        given = Framework(fw.graph, fw.p, fw.q, fw.prime)
        for got, want in zip(fw._arrays, given._arrays):
            assert got.dtype == want.dtype == dtype
            assert got.tolist() == want.tolist()
        coo = build_rigidity_matrix(fw).coo
        for got, want in zip(coo, build_rigidity_matrix(given).coo):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


def _placement_digest(graph, **kwargs) -> str:
    fw = sample_symmetric_placement(graph, **kwargs)
    return hashlib.sha256(repr((fw.p, fw.q)).encode()).hexdigest()[:16]


def test_residue_samples_are_unchanged():
    # the seed-2 residue frameworks as the per-vertex sampler drew them:
    # rotation-fixed vertices (c2, c4), mirror-fixed vertices and loops
    # (mirror_pair, mirror_fixed_vertex) and a verdict-large size (c5 40/0)
    pinned = {
        "c1": "d82b30346c002352",
        "c2": "2137eccf112bf0dd",
        "c3": "e3f62ca5fbeb869e",
        "c4": "34f58c84ae46de7d",
        "c5": "c3495f2c5e862b59",
        "c6": "abe14f450528f3fa",
    }
    for group, digest in pinned.items():
        graph = generate_random(group, steps=12, seed=0).graph
        assert _placement_digest(graph, seed=2, modular=True) == digest, group
    for graph, digest in (
        (mirror_pair(), "b57f783cc2604f0c"),
        (mirror_fixed_vertex(), "40cfaba9cfce85f3"),
        (generate_random("c5", steps=40, seed=0).graph, "d99af9384154cb07"),
    ):
        assert _placement_digest(graph, seed=2, modular=True) == digest


def test_float_and_resampled_samples_are_unchanged():
    # float coordinates: c3, and d3 with mirror-fixed vertices and loops
    c3 = generate_random("c3", steps=12, seed=0).graph
    assert _placement_digest(c3, seed=2) == "d7aa3fc7ca958d21"
    assert _placement_digest(d3_flower(), seed=2) == "38ca9a894b636932"
    # at scale 2 four orbit draws collide and are drawn again
    c2 = generate_random("c2", steps=5, seed=0).graph
    assert _placement_digest(c2, seed=0, scale=2) == "879398a727ef3dfb"
    # ... and here one orbit collides on every one of its draws
    c4 = generate_random("c4", steps=5, seed=0).graph
    with pytest.raises(DegenerateInputError, match="orbit of vertex 16"):
        sample_symmetric_placement(c4, seed=0, scale=2)


@pytest.mark.parametrize(
    "group, steps, seed",
    [("c2", 250, 2), ("c2", 150, 2), ("c5", 120, 0), ("c4", 100, 0)],
)
def test_classify_is_isostatic_in_one_trial_where_the_float_cut_failed(group, steps, seed):
    # n = 501, 301, 605 and 404: the float cut lost rank here (c2: 1000 of
    # 1002 and 600 of 602 on every trial; c5: 1205 of 1210 on trial 1)
    graph = c5_605() if group == "c5" else generate_random(group, steps=steps, seed=seed).graph
    r = classify(graph)
    assert r.classification == "isostatic"
    assert r.trial_ranks == (2 * graph.num_vertices,)


def test_residue_draws_are_those_of_randrange():
    # a small prime rejects about half its bit draws; the group primes
    # sit just below 2**31 and rarely reject
    primes = [5, 7, 17] + [GroupSpec("cyclic", n).prime_field.prime for n in (1, 3, 5)]
    for prime in primes:
        for seed in range(20):
            a, b = random.Random(seed), random.Random(seed)
            got = [realize._draw_residue(a, prime) for _ in range(200)]
            assert got == [b.randrange(1, prime) for _ in range(200)], (prime, seed)


def test_check_tight_and_classify_build_the_int64_tables_once(monkeypatch):
    # a fresh object, with nothing kept on it yet; not of full rank, so
    # classify runs every trial
    graph = replace(c2_fixed_edge())
    calls = _count_table_builds(monkeypatch)
    widths = []
    original = symgraph._table

    def counted(rows, width):
        widths.append(width)
        return original(rows, width)

    monkeypatch.setattr(symgraph, "_table", counted)
    check_tight(graph)
    report = classify(graph, trials=3)
    assert len(report.trial_ranks) == 3
    # the action tables once, and the edge ends once
    assert calls == [graph]
    assert widths == [2]


def test_sampled_residue_framework_is_checked_on_its_arrays():
    graph = base_graph("lc3")
    fw = sample_symmetric_placement(graph, seed=0, modular=True)
    p, q = fw._arrays
    assert p.dtype == q.dtype == np.int64
    assert fw.p == tuple(map(tuple, p.tolist())) and fw.q == tuple(map(tuple, q.tolist()))
    # arrays out of range are refused as the same tuples would be
    for arrays in ((p + fw.prime, q), (p, -q)):
        bad = object.__new__(Framework)
        bad.__dict__["_arrays"] = arrays
        with pytest.raises(RangeError):
            bad.__init__(graph, fw.p, fw.q, fw.prime)
