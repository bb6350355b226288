"""Shared graph builders for the test suite.

Every builder returns a validated SymmetricGraph with frozen structure so
tests can assert exact counts, witnesses, and ranks against values that
were derived once by hand.
"""

import random

from slcrigid import GroupSpec, Loop, SymmetricGraph, validate_action


def c3_wheel() -> SymmetricGraph:
    """Fixed hub carrying a 3-loop orbit, three spokes, one rim loop each.

    Nine rows against eight columns: rigid at generic symmetric placements
    yet dependent at every placement, and no symmetric spanning subgraph
    can be isostatic because all orbits have size 3 while 2|V| = 8.
    """
    g = SymmetricGraph(
        GroupSpec("cyclic", 3),
        4,
        ((0, 1), (0, 2), (0, 3)),
        tuple(Loop(i, 0) for i in range(3))
        + tuple(Loop(3 + k, 1 + k) for k in range(3)),
        rotation_vertex_perm=(0, 2, 3, 1),
        rotation_loop_perm={0: 1, 1: 2, 2: 0, 3: 4, 4: 5, 5: 3},
    )
    assert validate_action(g).ok
    return g


def c2_fixed_edge() -> SymmetricGraph:
    """Tight by plain counts but with a half-turn-fixed edge.

    Triangle on a fixed vertex and a swapped pair, fixed loop at the fixed
    vertex, swapped loop pair: v2 = e2 = l2 = 1.  The fixed counts and the
    characters both fail, and the rank is 5 < 6 at every placement.
    """
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        3,
        ((0, 1), (0, 2), (1, 2)),
        (Loop(0, 0), Loop(1, 1), Loop(2, 2)),
        rotation_vertex_perm=(0, 2, 1),
        rotation_loop_perm={0: 0, 1: 2, 2: 1},
    )
    assert validate_action(g).ok
    return g


def ring_with_spokes(n: int = 5) -> SymmetricGraph:
    """Free ring orbit joined by spokes to a doubly looped free orbit.

    Tight, but no vertex orbit is reducible: ring vertices have both edge
    neighbours inside their own orbit, and the spoke orbit's vertices carry
    two loops, a shape no extension move creates.  Stays isostatic.
    """
    edges = sorted(
        [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
        + [(i, n + i) for i in range(n)]
    )
    loops = tuple(Loop(2 * k, n + k) for k in range(n)) + tuple(
        Loop(2 * k + 1, n + k) for k in range(n)
    )
    vperm = tuple((i + 1) % n for i in range(n)) + tuple(
        n + ((k + 1) % n) for k in range(n)
    )
    lperm = {2 * k: 2 * ((k + 1) % n) for k in range(n)}
    lperm |= {2 * k + 1: 2 * ((k + 1) % n) + 1 for k in range(n)}
    g = SymmetricGraph(
        GroupSpec("cyclic", n),
        2 * n,
        tuple(edges),
        loops,
        rotation_vertex_perm=vperm,
        rotation_loop_perm=lperm,
    )
    assert validate_action(g).ok
    return g


def mirror_pair() -> SymmetricGraph:
    """Two mirror-swapped vertices joined by a mirror-fixed edge, with two
    swapped loop pairs.  Small cs fixture for reflection bookkeeping."""
    g = SymmetricGraph(
        GroupSpec("reflection", 2),
        2,
        ((0, 1),),
        (Loop(0, 0), Loop(1, 1), Loop(2, 0), Loop(3, 1)),
        reflection_vertex_perm=(1, 0),
        reflection_loop_perm={0: 1, 1: 0, 2: 3, 3: 2},
    )
    assert validate_action(g).ok
    return g


def mirror_fixed_vertex() -> SymmetricGraph:
    """One mirror-fixed vertex with a loop pinned along the mirror and a
    loop pinned across it.  The cs analogue of the one-vertex base."""
    g = SymmetricGraph(
        GroupSpec("reflection", 2),
        1,
        (),
        (Loop(0, 0, sigma_label="+"), Loop(1, 0, sigma_label="-")),
        reflection_vertex_perm=(0,),
        reflection_loop_perm={0: 0, 1: 1},
    )
    assert validate_action(g).ok
    return g


def random_rows_graph(rng: random.Random, n: int, rows: int):
    """Plain looped graph with the requested number of rows.

    Returns (num_vertices, edges, loop_vertices) for the sparsity deciders.
    No parallel edges; loops may stack on one vertex.
    """
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    max_edges = min(len(all_pairs), rows)
    num_edges = rng.randint(0, max_edges)
    edges = tuple(sorted(rng.sample(all_pairs, num_edges)))
    loops = tuple(rng.randrange(n) for _ in range(rows - num_edges))
    return n, edges, loops


def d3_flower() -> SymmetricGraph:
    """A d3 graph with a free orbit and a mirror-fixed orbit.

    Free vertex r + 3m sits at the image of vertex 0 under c^r s^m; vertex
    6 + r lies on a mirror line and carries a mirror-fixed loop.  The free
    orbit is a ring with a loop at each vertex and spokes to the mirror
    orbit.  Exercises complex character blocks next to mirror-pinned
    points and normals.
    """
    rot = tuple((r + 1) % 3 + 3 * m for m in range(2) for r in range(3))
    ref = tuple((-r) % 3 + 3 * (1 - m) for m in range(2) for r in range(3))
    rot += tuple(6 + (r + 1) % 3 for r in range(3))
    ref += tuple(6 + (-r) % 3 for r in range(3))
    edges = set()
    todo = [(0, 1), (0, 6), (0, 3)]
    while todo:
        u, v = todo.pop()
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            todo += [(rot[u], rot[v]), (ref[u], ref[v])]
    # loop id = vertex for the free ring, 6 + r at mirror vertex 6 + r
    loops = tuple(Loop(v, v) for v in range(6)) + tuple(
        Loop(v, v, sigma_label="+") for v in range(6, 9)
    )
    g = SymmetricGraph(
        GroupSpec("dihedral", 3),
        9,
        tuple(sorted(edges)),
        loops,
        rotation_vertex_perm=rot,
        rotation_loop_perm=dict(enumerate(rot)),
        reflection_vertex_perm=ref,
        reflection_loop_perm=dict(enumerate(ref)),
    )
    assert validate_action(g).ok, validate_action(g).violations
    return g
