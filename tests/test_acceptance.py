"""Acceptance gate: nine checks covering the whole pipeline.

Each test prints one ``criterion N: PASS`` line on success (visible with
``pytest -s`` or in the captured output); a failure raises with the first
offending case.  Tolerances and trial counts are pinned here on purpose.
"""

import itertools
import random
import time

import pytest

from conftest import c2_fixed_edge, c3_wheel, random_rows_graph
from slcrigid import (
    SymmetricGraph,
    GroupSpec,
    Loop,
    base_graph,
    build_rigidity_matrix,
    character_vectors,
    check_tight,
    classify,
    criticality,
    cross_edge_count,
    decompose,
    fixed_count_check,
    generate_random,
    is_gamma_tight,
    pebble_check,
    rank,
    sample_symmetric_placement,
    subset_audit,
    verify_decomposition,
)

FLOAT_TOL = 1e-9
TRIALS = 3


def _generate_pool(group, bases, count, max_steps, max_vertices, seed0):
    """Deterministic pool of generated graphs cycling over the bases."""
    pool = []
    rng = random.Random(seed0)
    i = 0
    while len(pool) < count:
        base = bases[i % len(bases)]
        steps = rng.randint(1, max_steps)
        gen = generate_random(group, steps=steps, seed=seed0 + i, base=base)
        i += 1
        if gen.graph.num_vertices > max_vertices:
            continue
        pool.append(gen)
    return pool


@pytest.fixture(scope="module")
def c2_pool():
    return _generate_pool("c2", ["p1_fixed", "pinned2"], 200, 10, 22, 1000)


@pytest.fixture(scope="module")
def odd_pools():
    return {
        "c3": _generate_pool("c3", ["pinned3", "lc3"], 100, 10, 40, 3000),
        "c5": _generate_pool("c5", ["pinned5", "lc5"], 100, 10, 60, 5000),
    }


def test_criterion_1_base_graphs_isostatic():
    t0 = time.perf_counter()
    labels = ["p1_fixed", "p1_swap", "pinned2", "pinned3", "pinned5", "lc3", "lc5", "lc7"]
    for label in labels:
        g = base_graph(label)
        r = classify(g, trials=TRIALS, seed=0)
        assert r.classification == "isostatic", label
        assert r.rank == r.num_rows == r.num_cols == 2 * g.num_vertices, label
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"runtime {dt:.2f}s"
    print(f"criterion 1: PASS ({len(labels)} base graphs isostatic in {dt:.2f}s)")


def test_criterion_2_half_turn_characterization(c2_pool):
    t0 = time.perf_counter()
    assert len(c2_pool) >= 200
    for gen in c2_pool:
        assert gen.graph.num_vertices <= 22
        assert is_gamma_tight(gen.graph), gen.moves
        r = classify(gen.graph, trials=TRIALS, seed=0)
        assert r.classification == "isostatic", gen.moves
    # float against exact rank of one integer placement, on a fixed subsample
    for gen in c2_pool[::10][:20]:
        m = build_rigidity_matrix(sample_symmetric_placement(gen.graph, seed=0))
        rf = rank(m, "float", tol=FLOAT_TOL)
        re_ = rank(m, "exact")
        assert rf.rank == re_.rank
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"runtime {dt:.2f}s"
    print(f"criterion 2: PASS ({len(c2_pool)} half-turn graphs in {dt:.1f}s)")


def test_criterion_3_odd_rotation_characterization(odd_pools):
    t0 = time.perf_counter()
    for name, pool in odd_pools.items():
        assert len(pool) >= 100
        for gen in pool:
            assert is_gamma_tight(gen.graph), (name, gen.moves)
            r = classify(gen.graph, trials=TRIALS, seed=0)
            assert r.classification == "isostatic", (name, gen.moves)
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"runtime {dt:.2f}s"
    total = sum(len(p) for p in odd_pools.values())
    print(f"criterion 3: PASS ({total} odd-rotation graphs in {dt:.1f}s)")


def test_criterion_4_reduction_round_trip(c2_pool, odd_pools):
    t0 = time.perf_counter()
    pools = [c2_pool] + list(odd_pools.values())
    count = 0
    for pool in pools:
        for gen in pool:
            dec = decompose(gen.graph)
            assert len(dec.components) == 1
            trace = dec.components[0]
            assert "+" not in trace.base_label, gen.moves
            assert len(trace.moves) == len(gen.moves), gen.moves
            assert verify_decomposition(gen.graph, dec), gen.moves
            count += 1
    dt = time.perf_counter() - t0
    print(f"criterion 4: PASS ({count} exact-length round trips in {dt:.1f}s)")


def test_criterion_5_necessary_condition_falsification():
    # half-turn graph with one fixed edge (and a full 2|V| rows)
    g2 = c2_fixed_edge()
    assert len(g2.edges) + len(g2.loops) == 2 * g2.num_vertices
    assert fixed_count_check(g2).first_failure == "half-turn counts"
    assert not character_vectors(g2).equal
    for seed in range(5):
        r = classify(g2, trials=1, seed=seed)
        assert r.rank < 2 * g2.num_vertices
        assert not r.independent

    # threefold graph with one fixed vertex; a fixed vertex forces the
    # row count off 2|V| mod 3, so the dependence shows up as rank < rows
    g3 = c3_wheel()
    assert fixed_count_check(g3).first_failure is not None
    assert not character_vectors(g3).equal
    for seed in range(5):
        r = classify(g3, trials=1, seed=seed)
        assert r.rank < r.num_rows
        assert not r.independent
    print("criterion 5: PASS (both fixed-element graphs dependent in 5/5 placements)")


def test_criterion_6_wheel_counterexample():
    g = c3_wheel()
    assert g.num_vertices == 4
    assert len(g.edges) == 3 and len(g.loops) == 6
    r = classify(g, trials=TRIALS, seed=0)
    assert r.rank == 8 == 2 * g.num_vertices
    assert r.num_rows == 9
    assert r.rigid and not r.independent

    # symmetric spanning subgraphs pick whole orbits: one edge orbit and
    # two loop orbits, so row counts are multiples of 3 and never 8
    edge_orbit = g.edges
    hub_loops = tuple(l for l in g.loops if l.vertex == 0)
    rim_loops = tuple(l for l in g.loops if l.vertex != 0)
    full_lperm = dict(zip(g.loop_ids, g.rotation_loop_perm))
    none_isostatic = True
    for take_e, take_h, take_r in itertools.product([0, 1], repeat=3):
        edges = edge_orbit if take_e else ()
        loops = (hub_loops if take_h else ()) + (rim_loops if take_r else ())
        rows = len(edges) + len(loops)
        assert rows % 3 == 0 and rows != 8
        kept = {l.id for l in loops}
        sub = SymmetricGraph(
            g.group,
            g.num_vertices,
            edges,
            loops,
            rotation_vertex_perm=g.rotation_vertex_perm,
            rotation_loop_perm={k: v for k, v in full_lperm.items() if k in kept},
        )
        sr = classify(sub, trials=TRIALS, seed=0)
        if sr.isostatic:
            none_isostatic = False
    assert none_isostatic
    print("criterion 6: PASS (rigid, dependent, and no symmetric spanning subgraph is isostatic)")


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(7777)
    total = 0
    while total < 10_000:
        n = rng.randint(1, 7)
        rows = rng.randint(max(0, 2 * n - 3), 2 * n + 2)
        n, edges, loop_vertices = random_rows_graph(rng, n, rows)
        a = pebble_check(n, edges, loop_vertices)
        b = subset_audit(n, edges, loop_vertices)
        assert a.verdict == b.verdict, (n, edges, loop_vertices)
        total += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"runtime {dt:.2f}s"
    print(f"criterion 7: PASS ({total} graphs, deciders agree, {dt:.1f}s)")


def test_criterion_8_trivial_group_baseline():
    rng = random.Random(42)
    checked = 0
    tight_seen = 0
    # half the sample are arbitrary row-count graphs, half generated tight
    for trial in range(100):
        n = rng.randint(1, 7)
        rows = rng.randint(max(0, 2 * n - 2), 2 * n + 2)
        n, edges, loop_vertices = random_rows_graph(rng, n, rows)
        loops = []
        for v in loop_vertices:
            loops.append(Loop(len(loops), v))
        g = SymmetricGraph(GroupSpec("cyclic", 1), n, edges, tuple(loops))
        report = pebble_check(n, edges, loop_vertices)
        r = classify(g, trials=TRIALS, seed=trial)
        assert report.tight == r.isostatic, (edges, loop_vertices)
        if not report.sparse:
            assert all(t < r.num_rows for t in r.trial_ranks)
        tight_seen += report.tight
        checked += 1
    for trial in range(100):
        gen = generate_random("c1", steps=rng.randint(0, 8), seed=trial)
        r = classify(gen.graph, trials=TRIALS, seed=trial)
        assert r.isostatic, gen.moves
        tight_seen += 1
        checked += 1
    assert checked >= 200 and tight_seen >= 100
    print(f"criterion 8: PASS ({checked} trivial-group graphs, {tight_seen} tight)")


def test_criterion_9_capacity_identity():
    rng = random.Random(99)
    done = 0
    while done < 1000:
        n = rng.randint(2, 8)
        rows = rng.randint(0, 2 * n + 2)
        n, edges, loop_vertices = random_rows_graph(rng, n, rows)
        a = set(rng.sample(range(n), rng.randint(1, n)))
        b = set(rng.sample(range(n), rng.randint(1, n)))
        if not (a & b):
            continue
        d = cross_edge_count(edges, a, b)
        ka = criticality(n, edges, loop_vertices, a)
        kb = criticality(n, edges, loop_vertices, b)
        ku = criticality(n, edges, loop_vertices, a | b)
        ki = criticality(n, edges, loop_vertices, a & b)
        assert ka.k + kb.k == ku.k + ki.k + d
        assert ka.k_bar + kb.k_bar == ku.k_bar + ki.k_bar + d
        done += 1
    print(f"criterion 9: PASS ({done} subset pairs, both identities exact)")
