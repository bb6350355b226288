"""Counting oracle, pebble game, and the helper counts they share."""

import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest

from conftest import random_rows_graph
from slcrigid import (
    GroupSpec,
    RangeError,
    SymmetricGraph,
    criticality,
    cross_edge_count,
    decompose,
    generate_random,
    pebble_check,
    subset_audit,
)
from slcrigid import sparsity
from slcrigid.sparsity import SUBSET_AUDIT_MAX_VERTICES, pebble_games


def _induced_rows(edges, loop_vertices, subset):
    s = set(subset)
    ie = sum(1 for u, v in edges if u in s and v in s)
    il = sum(1 for v in loop_vertices if v in s)
    return ie + il, ie


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_k4_is_not_sparse():
    r = subset_audit(4, K4_EDGES, [])
    assert r.verdict == "not-sparse"
    assert not r.sparse and not r.tight
    assert r.witness.vertices == (0, 1, 2, 3)
    assert r.witness.rule == "edges"
    assert r.witness.edge_count == 6


def test_k4_minus_edge_is_sparse_not_tight():
    r = subset_audit(4, K4_EDGES[:-1], [])
    assert r.verdict == "sparse-not-tight"
    assert r.sparse and not r.tight
    assert r.witness is None


def test_triangle_with_one_loop_per_vertex_is_tight():
    r = subset_audit(3, [(0, 1), (0, 2), (1, 2)], [0, 1, 2])
    assert r.verdict == "sparse-and-tight"
    assert r.sparse and r.tight


def test_three_loops_on_one_vertex_trip_the_row_rule():
    r = subset_audit(2, [(0, 1)], [0, 0, 0])
    assert r.verdict == "not-sparse"
    assert r.witness.vertices == (0,)
    assert r.witness.rule == "rows"
    assert r.witness.row_count == 3


def test_two_loops_per_vertex_everywhere_is_tight():
    r = subset_audit(3, [], [0, 0, 1, 1, 2, 2])
    assert r.tight


def test_empty_graph_is_sparse():
    assert subset_audit(0, [], []).sparse
    assert pebble_check(0, [], []).sparse


def test_single_vertex_two_loops_is_tight_both_methods():
    for check in (subset_audit, pebble_check):
        r = check(1, [], [0, 0])
        assert r.tight, check.__name__


def test_subset_audit_rejects_oversized_input():
    with pytest.raises(RangeError):
        subset_audit(SUBSET_AUDIT_MAX_VERTICES + 1, [], [])


def test_methods_agree_on_random_graphs():
    rng = random.Random(20260814)
    for trial in range(300):
        n = rng.randint(1, 8)
        rows = rng.randint(0, 2 * n + 2)
        n, edges, loop_vertices = random_rows_graph(rng, n, rows)
        a = subset_audit(n, edges, loop_vertices)
        b = pebble_check(n, edges, loop_vertices)
        assert a.verdict == b.verdict, (n, edges, loop_vertices)


def test_pebble_witness_is_a_real_violation():
    rng = random.Random(99)
    seen = 0
    for trial in range(400):
        n = rng.randint(2, 7)
        rows = rng.randint(2 * n - 1, 2 * n + 3)
        n, edges, loop_vertices = random_rows_graph(rng, n, rows)
        r = pebble_check(n, edges, loop_vertices)
        if r.witness is None:
            continue
        seen += 1
        w = r.witness
        rc, ec = _induced_rows(edges, loop_vertices, w.vertices)
        assert rc == w.row_count and ec == w.edge_count
        k = len(w.vertices)
        if w.rule == "rows":
            assert rc > 2 * k
        else:
            assert ec > 2 * k - 3 and ec > 0
    assert seen >= 50


def test_subset_witness_matches_recount():
    r = subset_audit(4, K4_EDGES, [])
    rc, ec = _induced_rows(K4_EDGES, [], r.witness.vertices)
    assert (rc, ec) == (r.witness.row_count, r.witness.edge_count)


def test_criticality_counts_one_subset():
    edges = [(0, 1), (1, 2)]
    c = criticality(3, edges, [0, 2, 2], (0, 1))
    assert c.subset == (0, 1)
    assert c.row_count == 2  # edge (0,1) and the loop at 0
    assert c.edge_count == 1
    assert c.k == 2 * 2 - 2
    assert c.k_bar == 2 * 2 - 1


def test_criticality_rejects_out_of_range_subset():
    with pytest.raises(RangeError):
        criticality(2, [], [], (0, 5))


def test_cross_edge_count_examples():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert cross_edge_count(edges, (0, 1), (2, 3)) == 2
    assert cross_edge_count(edges, (0, 1, 2), (1, 2, 3)) == 1
    assert cross_edge_count(edges, (0,), (0, 1)) == 0


def test_capacity_identity_on_random_subset_pairs():
    # k(A) + k(B) = k(A|B) + k(A&B) + cross(A,B), same with k_bar
    rng = random.Random(5)
    for trial in range(200):
        n = rng.randint(2, 7)
        rows = rng.randint(0, 2 * n)
        n, edges, loop_vertices = random_rows_graph(rng, n, rows)
        verts = list(range(n))
        a = set(rng.sample(verts, rng.randint(1, n)))
        b = set(rng.sample(verts, rng.randint(1, n)))
        d = cross_edge_count(edges, a, b)
        ka = criticality(n, edges, loop_vertices, a)
        kb = criticality(n, edges, loop_vertices, b)
        ku = criticality(n, edges, loop_vertices, a | b)
        ki = criticality(n, edges, loop_vertices, a & b)
        assert ka.k + kb.k == ku.k + ki.k + d
        assert ka.k_bar + kb.k_bar == ku.k_bar + ki.k_bar + d


def test_subset_audit_matches_brute_force_definition():
    rng = random.Random(11)
    for trial in range(120):
        n = rng.randint(1, 6)
        rows = rng.randint(0, 2 * n + 1)
        n, edges, loop_vertices = random_rows_graph(rng, n, rows)
        ok = True
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                rc, ec = _induced_rows(edges, loop_vertices, subset)
                if rc > 2 * size:
                    ok = False
                if ec > 0 and ec > 2 * size - 3:
                    ok = False
        assert subset_audit(n, edges, loop_vertices).sparse == ok


def _pebble_cases():
    """Seeded inputs for the pinned reports: small random looped graphs,
    and generated tight graphs with one extra edge or one extra loop."""
    rng = random.Random(20261018)
    for _ in range(2000):
        n = rng.randint(1, 12)
        rows = rng.randint(max(0, 2 * n - 4), 2 * n + 2)
        yield random_rows_graph(rng, n, rows)
    for group in ("c1", "c2", "c3", "c4", "c5"):
        for steps in range(2, 9):
            for seed in range(4):
                g = generate_random(group, steps=steps, seed=seed).graph
                n = g.num_vertices
                edge_set = set(g.edges)
                pairs = [
                    (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edge_set
                ]
                loops = list(g.loop_vertices)
                if pairs:
                    yield n, g.edges + (rng.choice(pairs),), loops
                yield n, g.edges, loops + [rng.randrange(n)]


def test_pebble_reports_are_unchanged():
    # sha256 of the reports' reprs, taken before the pebble search stopped
    # sorting each vertex's arcs: the witness does not depend on the order
    h = hashlib.sha256()
    for n, edges, loops in _pebble_cases():
        h.update(repr(pebble_check(n, edges, loops)).encode())
    assert h.hexdigest() == "360058dd0ddcc2deed5b1499b22fba2b9ec2fa43ccb4c24051d5693d1e351863"


# the graphs of the verdict-large benchmark, whose sizes the cases above
# (steps <= 8) do not reach
BENCH_SIZE_GRAPHS = (("c2", 250, 2), ("c2", 150, 2), ("c3", 150, 0), ("c4", 100, 0), ("c5", 120, 0))


def test_pebble_reports_at_bench_size_are_unchanged():
    # sha256 of the reports' reprs for each graph as it is, with one extra
    # edge, with one extra loop, and with the missing edges of a K4 (which
    # the edge pass refuses; no single edge closes a tight edge set here),
    # taken before edges at a vertex with at most one edge skipped the
    # pebble search
    rng = random.Random(19)
    h = hashlib.sha256()
    for group, steps, seed in BENCH_SIZE_GRAPHS:
        g = generate_random(group, steps=steps, seed=seed).graph
        n, loops, edge_set = g.num_vertices, list(g.loop_vertices), set(g.edges)
        while True:
            extra = tuple(sorted(rng.sample(range(n), 2)))
            if extra not in edge_set:
                break
        k4 = tuple(e for e in itertools.combinations(sorted(rng.sample(range(n), 4)), 2) if e not in edge_set)
        for edges, rows in (
            (g.edges, loops),
            (g.edges + (extra,), loops),
            (g.edges, loops + [rng.randrange(n)]),
            (g.edges + k4, loops),
        ):
            h.update(repr(pebble_check(n, edges, rows)).encode())
    assert h.hexdigest() == "c30f2aec38848e9e297eaf87a8ea6043a37b4b25fcb23d150e70a5e06f62861b"


def _first_dependent_row(n, edges, loops):
    """Brute force over all vertex subsets: the first row, in the order
    ``pebble_check`` inserts them (edges, then loops, each sorted), that
    closes a tight set of the rows before it, and the least such set.
    Edges are tight in the (2,3) count over the edges, loops in the (2,0)
    count over all rows."""
    masks = np.arange(1 << n)
    size = np.bitwise_count(masks)
    ie = np.zeros(1 << n, dtype=np.int64)
    rows = [(tuple(sorted(e)), "edges") for e in sorted(edges)]
    rows += [((v,), "rows") for v in sorted(loops)]
    for ends, rule in rows:
        inside = np.ones(1 << n, dtype=bool)
        for v in ends:
            inside &= (masks >> v) & 1 == 1
        tight = inside & (ie == (2 * size - 3 if rule == "edges" else 2 * size))
        if tight.any():
            sizes = np.where(tight, size, n + 1)
            least = int(masks[np.argmin(sizes)])
            # the least tight set lies inside every other one
            assert all(int(m) & least == least for m in masks[tight])
            return tuple(v for v in range(n) if least >> v & 1), rule
        ie += inside
    return None


def test_pebble_witness_is_the_least_tight_set_the_failing_row_closes():
    seen = 0
    for n, edges, loops in _pebble_cases():
        if n > 12:
            continue
        r = pebble_check(n, edges, loops)
        expected = _first_dependent_row(n, edges, loops)
        if r.witness is None:
            assert expected is None
            continue
        seen += 1
        assert (r.witness.vertices, r.witness.rule) == expected, (n, edges, loops)
        rc, ec = _induced_rows(edges, loops, r.witness.vertices)
        assert (r.witness.row_count, r.witness.edge_count) == (rc, ec)
    assert seen > 500


def test_restricted_games_decide_added_rows_like_a_fresh_game():
    # delete some vertices from a sparse graph's games, insert random rows,
    # and compare each acceptance with pebble_check of the rows so far
    rng = random.Random(3)
    for trial in range(300):
        n = rng.randint(2, 10)
        n, edges, loops = random_rows_graph(rng, n, rng.randint(0, 2 * n))
        if not pebble_check(n, edges, loops).sparse:
            continue
        edge_game, row_game = pebble_games(n, edges, loops)
        gone = set(rng.sample(range(n), rng.randint(0, n - 1)))
        vmap, kept = [None] * n, 0
        for u in range(n):
            if u not in gone:
                vmap[u], kept = kept, kept + 1
        edge_game, row_game = edge_game.restrict(vmap), row_game.restrict(vmap)
        edges = [(vmap[a], vmap[b]) for a, b in edges if not gone & {a, b}]
        loops = [vmap[v] for v in loops if vmap[v] is not None]
        for _ in range(4):
            if kept >= 2 and rng.random() < 0.6:
                a, b = sorted(rng.sample(range(kept), 2))
                if (a, b) in edges:
                    continue
                ok = pebble_check(kept, edges + [(a, b)], loops).sparse
                assert (edge_game.insert_edge(a, b, 4) and row_game.insert_edge(a, b, 1)) == ok
                if not ok:
                    break
                edges.append((a, b))
            else:
                v = rng.randrange(kept)
                ok = pebble_check(kept, edges, loops + [v]).sparse
                assert row_game.insert_loop(v) == ok
                if not ok:
                    break
                loops.append(v)


def test_rows_deleted_in_place_leave_games_that_decide_like_a_fresh_game():
    # delete some rows of a sparse graph's games in place, then insert
    # random rows, the deleted ones among them, and compare each acceptance
    # with pebble_check of the rows so far
    rng = random.Random(5)
    played = 0
    for trial in range(300):
        n = rng.randint(2, 10)
        n, edges, loops = random_rows_graph(rng, n, rng.randint(0, 2 * n))
        if not pebble_check(n, edges, loops).sparse:
            continue
        edge_game, row_game = pebble_games(n, edges, loops)
        gone = rng.sample(edges, rng.randint(0, len(edges)))
        gone_loops = rng.sample(loops, rng.randint(0, len(loops)))
        for a, b in gone:
            edge_game.delete(*rng.choice([(a, b), (b, a)]))
            row_game.delete(*rng.choice([(a, b), (b, a)]))
        for v in gone_loops:
            row_game.delete(v)
        edges = [e for e in edges if e not in gone]
        loops = list(loops)
        for v in gone_loops:
            loops.remove(v)
        for u in range(n):
            assert edge_game.pebbles[u] + len(edge_game.out[u]) == 2
            assert row_game.pebbles[u] + len(row_game.out[u]) + loops.count(u) == 2
        rows = gone + [(v, None) for v in gone_loops]
        rows += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(2)]
        rows += [(rng.randrange(n), None) for _ in range(2)]
        rng.shuffle(rows)
        for a, b in rows:
            played += 1
            if b is None:
                ok = pebble_check(n, edges, loops + [a]).sparse
                assert row_game.insert_loop(a) == ok
                loops.append(a)
            elif (a, b) not in edges:
                ok = pebble_check(n, edges + [(a, b)], loops).sparse
                assert (edge_game.insert_edge(a, b, 4) and row_game.insert_edge(a, b, 1)) == ok
                edges.append((a, b))
            else:
                continue
            if not ok:
                break
    assert played > 500


def test_pebble_games_refuse_a_graph_that_is_not_sparse():
    with pytest.raises(RangeError):
        pebble_games(4, K4_EDGES, [])
    with pytest.raises(RangeError):
        pebble_games(1, [], [0, 0, 0])


def test_zero_extension_edges_run_no_pebble_search(monkeypatch):
    # vertex 0 has two loops, vertex 1 one edge to 0 and one loop, and each
    # later vertex joins two earlier ones: every edge, numbered in growth
    # order, has an end with at most one edge so far
    rng = random.Random(7)
    n = 60
    edges = [(0, 1)]
    for k in range(2, n):
        edges += [(a, k) for a in rng.sample(range(k), 2)]
    searches = []
    find_pebble = sparsity._PebbleGame._find_pebble

    def counted(self, root, forbidden):
        searches.append(root)
        return find_pebble(self, root, forbidden)

    monkeypatch.setattr(sparsity._PebbleGame, "_find_pebble", counted)
    r = pebble_check(n, edges, [0, 0, 1])
    assert r.tight
    assert searches == []


def test_a_search_pulls_the_nearest_free_pebble_along_a_shortest_path():
    # root 0 has arcs to 1 and 3; 2 (behind 1) and 6 (behind 3, 4, 5) hold a
    # free pebble, every other vertex has spent its second pebble on a loop.
    # A depth-first search goes down the branch of 3 first and reverses
    # four arcs to reach 6; the pebble of 2 is two arcs away.
    game = sparsity._PebbleGame(7)
    game.out = [{1, 3}, {2}, set(), {4}, {5}, {6}, set()]
    game.pebbles = [0, 0, 1, 0, 0, 0, 1]
    game.keep_in_arcs()
    assert game._find_pebble(0, {0})
    assert game.pebbles == [1, 0, 0, 0, 0, 0, 1]
    assert game.out == [{3}, {0}, {1}, {4}, {5}, {6}, set()]
    assert game.into == [{1}, {2}, set(), {0}, {3}, {4}, {5}]


def test_no_search_starts_at_an_end_holding_both_its_pebbles(monkeypatch):
    # such an end has no arc, so its search would fail at once; the edge
    # pass, the (2,0) game of the loop pass and the walk's games all skip it
    roots = []
    find_pebble = sparsity._PebbleGame._find_pebble

    def counted(self, root, forbidden):
        roots.append(self.pebbles[root])
        return find_pebble(self, root, forbidden)

    monkeypatch.setattr(sparsity._PebbleGame, "_find_pebble", counted)
    for group in ("c2", "c3", "c4", "c5"):
        for steps, seed in ((12, 1), (60, 0)):
            g = generate_random(group, steps=steps, seed=seed).graph
            assert pebble_check(g.num_vertices, g.edges, g.loop_vertices).tight
            if steps < 20:
                decompose(g)
    assert roots and max(roots) < 2


def test_finished_games_orient_every_edge_once_and_keep_the_pebble_balance():
    for group in ("c1", "c2", "c3", "c4", "c5"):
        for steps, seed in ((3, 0), (12, 1), (40, 2)):
            g = generate_random(group, steps=steps, seed=seed).graph
            game = pebble_check(g.num_vertices, g.edges, g.loop_vertices).game
            arcs = [(u, w) for u, heads in enumerate(game.out) for w in heads]
            assert sorted(tuple(sorted(a)) for a in arcs) == sorted(g.edges)
            for v in range(g.num_vertices):
                loops = g.loop_vertices.count(v)
                assert game.pebbles[v] == 2 - len(game.out[v]) - loops >= 0


def test_vertex_ids_must_be_integers_and_are_kept_as_python_ints():
    # a float or bool id was stored as given, and True counted as vertex 1
    for edges, loops in (
        ([(0, 2.0), (1, 2)], []),
        ([(0, True), (1, 2)], []),
        ([(0, 1), (1, 2)], [2.0]),
        ([(0, 1), (1, 2)], [False]),
        ([(0, np.float64(1)), (1, 2)], []),
    ):
        if not loops:  # a graph's loops are Loop rows, not vertex ids
            with pytest.raises(RangeError, match="is not an integer"):
                SymmetricGraph(GroupSpec("cyclic", 1), 3, edges)
        for check in (pebble_check, subset_audit):
            with pytest.raises(RangeError, match="is not an integer"):
                check(3, edges, loops)
        with pytest.raises(RangeError, match="is not an integer"):
            criticality(3, edges, loops, [0, 1])
    # NumPy integers are ids, stored as Python ints
    g = SymmetricGraph(GroupSpec("cyclic", 1), 3, np.array([[1, 0], [1, 2]]))
    assert g.edges == ((0, 1), (1, 2))
    assert {type(x) for e in g.edges for x in e} == {int}
    assert pebble_check(3, np.array([[0, 1], [1, 2]]), np.array([0, 2])).num_loops == 2


def test_a_float_id_in_the_pebble_game_is_a_range_error():
    # it reached the game and raised a TypeError there
    with pytest.raises(RangeError):
        pebble_check(3, [(0, 1.0), (1, 2), (0, 2)], [0, 1, 2])


def test_a_graphs_edges_are_not_normalised_again():
    g = generate_random("c3", steps=10, seed=0).graph
    n = g.num_vertices
    edges, loops = sparsity._normalize(n, g.edges, g.loop_vertices)
    assert edges is g.edges and loops == sorted(g.loop_vertices)
    assert pebble_check(n, g.edges, g.loop_vertices) == pebble_check(n, list(g.edges), g.loop_vertices)
    # below the vertex count they were checked for, they are checked again
    top = max(v for e in g.edges for v in e)
    with pytest.raises(RangeError, match="out of range"):
        pebble_check(top, g.edges, [])
    # and so is a copy made by calling their type, as dataclasses.asdict does
    copied = dataclasses.asdict(g)["edges"]
    assert type(copied) is type(g.edges)
    assert pebble_check(n, copied, g.loop_vertices) == pebble_check(n, g.edges, g.loop_vertices)
