"""Expected results computed apart from slcrigid.

Everything here works on plain data: graph documents (the dicts the
benchmark hands to the program as JSON), lists of integers and NumPy
arrays.  Nothing calls into slcrigid, so a fault in the program cannot
hide itself by also being in the check.
"""

from __future__ import annotations

import numpy as np

# Largest prime below 2**31: products of two residues stay below 2**62, so
# the elimination below never overflows int64.
PRIME = 2147483629


def rank_mod_p(matrix: np.ndarray, p: int = PRIME) -> int:
    """Rank of an integer matrix over GF(p), by Gaussian elimination.

    Reduction modulo p can only lower the rank, so a full rank here proves
    full rank over the rationals.
    """
    a = np.array(matrix, dtype=np.int64) % p
    num_rows, num_cols = a.shape
    r = 0
    for c in range(num_cols):
        if r == num_rows:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            continue
        pivot = r + int(nonzero[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        below = r + 1 + np.flatnonzero(a[r + 1 :, c])
        if below.size:
            a[below] = (a[below] - a[below, c][:, None] * a[r]) % p
        r += 1
    return r


def sorted_loops(doc: dict) -> list[tuple[int, int]]:
    """(id, vertex) of every loop, by ascending id (the program's row order)."""
    return sorted((loop["id"], loop["vertex"]) for loop in doc["loops"])


def rigidity_matrix(doc: dict, points, normals) -> np.ndarray:
    """Integer rigidity matrix of a document under an integral placement.

    One row per edge, (p_u - p_v) at u and (p_v - p_u) at v; one row per
    loop, its normal at its vertex.  ``normals`` is aligned with the loops
    by ascending id.
    """
    if not all(isinstance(c, int) for pt in (*points, *normals) for c in pt):
        raise ValueError("placement is not integral")
    n = doc["num_vertices"]
    loops = sorted_loops(doc)
    a = np.zeros((len(doc["edges"]) + len(loops), 2 * n), dtype=np.int64)
    for row, (u, v) in enumerate(doc["edges"]):
        dx = points[u][0] - points[v][0]
        dy = points[u][1] - points[v][1]
        a[row, 2 * u : 2 * u + 2] = (dx, dy)
        a[row, 2 * v : 2 * v + 2] = (-dx, -dy)
    for k, ((_, v), q) in enumerate(zip(loops, normals)):
        a[len(doc["edges"]) + k, 2 * v : 2 * v + 2] = q
    return a


def classification(rank: int, num_rows: int, num_cols: int) -> str:
    """The four rank classes, by the definitions in the paper."""
    rigid, independent = rank == num_cols, rank == num_rows
    if rigid and independent:
        return "isostatic"
    if rigid:
        return "rigid-dependent"
    if independent:
        return "independent-flexible"
    return "dependent-flexible"


def row_count(doc: dict) -> int:
    return len(doc["edges"]) + len(doc["loops"])


def expected_sparsity(doc: dict) -> str:
    """Sparsity verdict of a generated graph.

    Generated graphs have 2|V| rows and are tight because extension moves
    preserve tightness.
    """
    rows, cap = row_count(doc), 2 * doc["num_vertices"]
    if rows == cap:
        return "sparse-and-tight"
    return "not-sparse" if rows > cap else "sparse-not-tight"


def same_rows(doc: dict, edges, loops) -> bool:
    """Plain set comparison of a graph's edges and (id, vertex) loops."""
    return {tuple(sorted(e)) for e in edges} == {
        tuple(e) for e in doc["edges"]
    } and set(loops) == set(sorted_loops(doc))


def traces_rebuild(doc: dict, traces) -> bool:
    """True when replayed traces, relabelled, give back the whole document.

    ``traces`` holds one (embedding, loop_embedding, edges, loops) per
    component: the replayed graph's edges and (id, vertex) loops, its
    vertex embedding (replayed vertex -> original vertex) and its loop
    embedding (replayed id -> original id).  The embeddings must partition
    the vertex set and the relabelled rows must be exactly the document's.
    """
    seen: list[int] = []
    edges: list[tuple[int, int]] = []
    loops: list[tuple[int, int]] = []
    for embedding, loop_embedding, t_edges, t_loops in traces:
        seen.extend(embedding)
        lmap = dict(loop_embedding)
        edges.extend((embedding[u], embedding[v]) for u, v in t_edges)
        loops.extend((lmap[lid], embedding[v]) for lid, v in t_loops)
    if sorted(seen) != list(range(doc["num_vertices"])):
        return False
    if len(edges) != len(doc["edges"]) or len(loops) != len(doc["loops"]):
        return False
    return same_rows(doc, edges, loops)
