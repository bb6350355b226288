"""Sparsity counts for looped simple graphs.

A looped simple graph (V, E, L) is *sparse* when every vertex subset X spans
at most 2|X| rows (edges plus loops inside X) and, whenever X spans at least
one edge, at most 2|X| - 3 simple edges; it is *tight* when additionally
|E| + |L| = 2|V|.  Generically, independent rows of the rigidity matrix are
exactly the sparse graphs, which is why these counts certify rigidity.

Two deciders are provided.  ``subset_audit`` enumerates every subset as a
bitmask and is the authoritative oracle (exponential, bounded vertex count).
``pebble_check`` plays a pebble game in polynomial time: two pebbles per
vertex, every simple edge needs four pebbles on its ends, every loop needs
one on its vertex, edges inserted before loops.  The edge pass is the plain
(2,3) game on the simple subgraph; the loop pass rejects a loop exactly when
its reachable set already spans twice its size.  One rule skips the search:
an edge u-v whose end v has at most one edge so far (a 0-extension edge)
closes no tight set, since without v a vertex set holding u and v loses at
most two edges and two from its bound 2|X| - 3.  v has out-degree at most
one, so it spends its own pebble and the edge is oriented v -> u.  A
search is breadth-first: it pulls the nearest free pebble back to its root
along a shortest path, reversing the fewest arcs, and never starts at an
end that holds both its pebbles, which has no arc to follow.  Any
orientation of sparse rows in which each vertex holds 2 minus its
out-degree pebbles is a state the game can go on from (Lee and Streinu,
*Pebble game algorithms and sparse graphs*, 2008).  A rejected row's
reachable set is the least tight set the row closes, whatever the
orientation, and is the witness.  Equivalence of the two deciders is
asserted empirically by the test suite rather than assumed.
``pebble_check``'s report keeps its finished game, from which
``_PebbleGame.games`` gives the two states that decide rows added later,
as ``pebble_games`` does; ``_PebbleGame.restrict`` deletes vertices from a
state, and ``_PebbleGame.delete`` deletes one row in place, both without a
search.

Graphs are passed structurally: a vertex count, edge pairs, and a sequence
of loop vertices (one entry per loop).  Vertex ids are integers, Python or
NumPy, and are kept as Python ints; a bool or a value that is not an
integer raises ``RangeError``, as an id out of range does.  Rows are
normalised once: the edges ``_normalize`` returns, which a
``SymmetricGraph`` keeps, are taken again as they are, so ``check_tight``
does not check its graph's rows a second time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import RangeError

SUBSET_AUDIT_MAX_VERTICES = 24
_BLOCK = 1 << 20


class _Edges(tuple):
    """Edge pairs as ``_normalize`` returns them: Python ints u < v, all
    below ``num_vertices``, sorted, none twice.  ``_normalize`` hands them
    back as they are for a vertex count of at least ``num_vertices``, so
    the rows a ``SymmetricGraph`` keeps are checked once."""

    num_vertices: int


def _vertex_id(x, what: str, *at) -> int:
    """x as a Python int; a bool or a value that is not an integer raises,
    naming it by ``what.format(*at)``, formatted only for the error."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise RangeError(f"{what.format(*at)} {x!r} is not an integer")


def _normalize(num_vertices: int, edges, loops):
    """The edges as sorted pairs u < v (an ``_Edges``) and the loop
    vertices sorted, every id a Python int.

    Ids may be any integers (``int``, NumPy integers); a bool or a
    non-integer id raises ``RangeError``, as do an id out of range, a
    self-edge and an edge given twice."""
    if not isinstance(num_vertices, int) or num_vertices < 0:
        raise RangeError("num_vertices must be a nonnegative integer")
    # an _Edges that a copier made by calling the class holds no count
    if type(edges) is _Edges and getattr(edges, "num_vertices", num_vertices + 1) <= num_vertices:
        out = edges
    else:
        out_edges = []
        seen = set()
        for e in edges:
            u, v = e
            if type(u) is not int or type(v) is not int:
                u, v = _vertex_id(u, "edge {} vertex", e), _vertex_id(v, "edge {} vertex", e)
            if u == v:
                raise RangeError("self-edge must be a loop entry")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise RangeError(f"edge {e} out of range")
            uv = (u, v) if u < v else (v, u)
            if uv in seen:
                raise RangeError(f"duplicate edge {uv}")
            seen.add(uv)
            out_edges.append(uv)
        out = _Edges(sorted(out_edges))
        out.num_vertices = num_vertices
    out_loops = []
    for v in loops:
        if type(v) is not int:
            v = _vertex_id(v, "loop vertex")
        if not 0 <= v < num_vertices:
            raise RangeError(f"loop vertex {v} out of range")
        out_loops.append(v)
    return out, sorted(out_loops)


@dataclass(frozen=True)
class Witness:
    """A vertex set violating a count: rows > 2|X| or edges > 2|X| - 3."""

    vertices: tuple[int, ...]
    row_count: int
    edge_count: int
    rule: str  # "rows" or "edges"


@dataclass(frozen=True)
class SparsityReport:
    verdict: str  # "sparse-and-tight" | "sparse-not-tight" | "not-sparse"
    method: str  # "subset" | "pebble"
    num_vertices: int
    num_edges: int
    num_loops: int
    witness: Witness | None = None
    # pebble_check's finished game, when the rows are sparse: the state
    # that decides rows added later (see ``_PebbleGame.games``)
    game: _PebbleGame | None = field(default=None, repr=False, compare=False)

    @property
    def sparse(self) -> bool:
        return self.verdict != "not-sparse"

    @property
    def tight(self) -> bool:
        return self.verdict == "sparse-and-tight"


def _verdict(num_vertices: int, num_edges: int, num_loops: int) -> str:
    if num_edges + num_loops == 2 * num_vertices:
        return "sparse-and-tight"
    return "sparse-not-tight"


def subset_audit(
    num_vertices: int,
    edges: Iterable[Sequence[int]],
    loops: Iterable[int],
) -> SparsityReport:
    """Exhaustive sparsity decision over all vertex subsets.

    Induced subgraphs suffice: the counts are monotone under adding rows.
    Among violating subsets the reported witness has minimal cardinality,
    ties broken by the numerically smallest vertex bitmask.  Refuses graphs
    above ``SUBSET_AUDIT_MAX_VERTICES``; use the pebble fast path for those.
    """
    edges, loops = _normalize(num_vertices, edges, loops)
    n = num_vertices
    if n > SUBSET_AUDIT_MAX_VERTICES:
        raise RangeError(
            f"subset_audit is exponential and capped at {SUBSET_AUDIT_MAX_VERTICES} vertices;"
            " use the pebble fast path"
        )
    loop_count: dict[int, int] = {}
    for v in loops:
        loop_count[v] = loop_count.get(v, 0) + 1

    best: tuple[int, int, int, int, bool] | None = None  # size, mask, ie, il, edge_rule
    for start in range(0, 1 << n, _BLOCK):
        stop = min(start + _BLOCK, 1 << n)
        masks = np.arange(start, stop, dtype=np.int64)
        ie = np.zeros(stop - start, dtype=np.int64)
        for (u, v) in edges:
            ie += (masks >> u) & (masks >> v) & 1
        il = np.zeros_like(ie)
        for v, cnt in loop_count.items():
            il += ((masks >> v) & 1) * cnt
        size = np.bitwise_count(masks).astype(np.int64)
        rows_bad = (ie + il) > 2 * size
        edges_bad = (ie > 0) & (ie > 2 * size - 3)
        bad = np.nonzero(rows_bad | edges_bad)[0]
        if bad.size:
            sizes = size[bad]
            smallest = bad[sizes == sizes.min()][0]  # masks ascend: first = least
            cand = (
                int(size[smallest]),
                int(masks[smallest]),
                int(ie[smallest]),
                int(il[smallest]),
                not bool(rows_bad[smallest]),
            )
            if best is None or cand[:2] < best[:2]:
                best = cand

    if best is None:
        return SparsityReport(_verdict(n, len(edges), len(loops)), "subset", n, len(edges), len(loops))
    sz, mask, ie_w, il_w, edge_rule = best
    verts = tuple(v for v in range(n) if mask >> v & 1)
    witness = Witness(verts, ie_w + il_w, ie_w, "edges" if edge_rule else "rows")
    return SparsityReport("not-sparse", "subset", n, len(edges), len(loops), witness)


class _PebbleGame:
    """Shared pool of two pebbles per vertex over a directed row orientation.

    An arc u -> w is an edge whose pebble u spent; a loop spends a pebble of
    its vertex and needs no arc.  Every vertex holds 2 minus its out-degree
    minus its loops.  Deleting vertices keeps that balance and keeps the
    rows sparse, so ``restrict`` gives a state the game can go on from.
    After ``keep_in_arcs``, ``into[w]`` holds the tails of the arcs into w,
    kept up to date by every later move of the game.
    """

    def __init__(self, n: int) -> None:
        self.pebbles = [2] * n
        self.out: list[set[int]] = [set() for _ in range(n)]
        self.into: list[set[int]] | None = None

    def keep_in_arcs(self) -> None:
        """Store the in-arcs from now on (``into``), read off the out-arcs."""
        self.into = [set() for _ in self.out]
        for u, heads in enumerate(self.out):
            for w in heads:
                self.into[w].add(u)

    def restrict(self, vmap: Sequence[int | None]) -> "_PebbleGame":
        """The game on the vertices that ``vmap`` keeps, renumbered by it.

        ``vmap[u]`` is u's new number, or None when u is deleted.  Rows at a
        deleted vertex go with it, and an arc into one returns its pebble
        to its tail; no search is needed.  The copy stores no in-arcs.
        """
        game = _PebbleGame(sum(1 for w in vmap if w is not None))
        for u, new in enumerate(vmap):
            if new is None:
                continue
            heads = {vmap[w] for w in self.out[u]}
            heads.discard(None)
            game.out[new] = heads
            game.pebbles[new] = self.pebbles[u] + len(self.out[u]) - len(heads)
        return game

    def games(self, vmap: Sequence[int | None]) -> tuple["_PebbleGame", "_PebbleGame"]:
        """The two games of ``pebble_games`` on the vertices ``vmap`` keeps,
        from this finished game of all rows of a sparse graph.

        The (2,0) game is ``restrict(vmap)``.  The (2,3) game has the same
        arcs and 2 minus its out-degree pebbles at every vertex, as if the
        loops had not been played: every orientation of sparse rows with
        that balance is a state the game can go on from.
        """
        row_game = self.restrict(vmap)
        edge_game = _PebbleGame(len(row_game.out))
        edge_game.out = [set(heads) for heads in row_game.out]
        edge_game.pebbles = [2 - len(heads) for heads in row_game.out]
        return edge_game, row_game

    def delete(self, u: int, v: int | None = None) -> None:
        """Delete the edge u-v, or one loop at u when v is None, in place:
        its pebble returns to the vertex that spent it.

        Every orientation of a sparse row set with 2 minus out-degree minus
        loops pebbles per vertex is a state the game can go on from, so a
        deleted row can later be inserted again with one pebble.
        """
        if v is not None and v not in self.out[u]:
            u, v = v, u
        if v is not None:
            self.out[u].remove(v)
            if self.into is not None:
                self.into[v].remove(u)
        self.pebbles[u] += 1

    def _find_pebble(self, root: int, forbidden: set[int]) -> bool:
        # Breadth-first along arcs: pull the nearest free pebble back to the
        # root by reversing a shortest path to it.  Callers never start at
        # a vertex holding both its pebbles, which has no arc to follow.
        out, pebbles = self.out, self.pebbles
        prev: dict[int, int | None] = {root: None}
        queue = [root]
        for x in queue:  # grows while it is read
            for y in out[x]:
                if y in prev:
                    continue
                prev[y] = x
                if pebbles[y] and y not in forbidden:
                    into = self.into
                    cur = y
                    while cur != root:
                        p = prev[cur]
                        out[p].remove(cur)
                        out[cur].add(p)
                        if into is not None:
                            into[cur].remove(p)
                            into[p].add(cur)
                        cur = p
                    pebbles[y] -= 1
                    pebbles[root] += 1
                    return True
                queue.append(y)
        return False

    def reach(self, roots: Iterable[int]) -> set[int]:
        seen = set(roots)
        stack = list(seen)
        while stack:
            x = stack.pop()
            for y in self.out[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def insert_edge(self, u: int, v: int, need: int = 4) -> bool:
        """Insert u-v when ``need`` pebbles gather on its ends: 4 in the
        (2,3) game on simple edges, 1 in the (2,0) game on all rows."""
        pebbles = self.pebbles
        ends = {u, v}
        while pebbles[u] + pebbles[v] < need:
            # an end holding both its pebbles has no arc to search along
            if not (
                (pebbles[u] < 2 and self._find_pebble(u, ends))
                or (pebbles[v] < 2 and self._find_pebble(v, ends))
            ):
                return False
        tail, head = (u, v) if pebbles[u] > 0 else (v, u)
        pebbles[tail] -= 1
        self.out[tail].add(head)
        if self.into is not None:
            self.into[head].add(tail)
        return True

    def insert_loop(self, v: int) -> bool:
        pebbles = self.pebbles
        while pebbles[v] < 1:
            if not self._find_pebble(v, {v}):
                return False
        pebbles[v] -= 1
        return True


def _induced_counts(edges, loops, verts: set[int]) -> tuple[int, int]:
    ie = sum(1 for (u, v) in edges if u in verts and v in verts)
    il = sum(1 for v in loops if v in verts)
    return ie, il


def pebble_check(
    num_vertices: int,
    edges: Iterable[Sequence[int]],
    loops: Iterable[int],
) -> SparsityReport:
    """Polynomial sparsity decision; witness from the final reachable set.

    An edge with an end that has at most one edge so far is inserted from
    that end's pebble (the later end's, when both have), with no search: it
    closes no tight set (see the module docstring).  Every other edge
    gathers four pebbles.  A sparse graph's report keeps the finished game
    (``game``).
    """
    edges, loops = _normalize(num_vertices, edges, loops)
    n = num_vertices
    game = _PebbleGame(n)
    pebbles, out = game.pebbles, game.out
    degree = [0] * n  # edges inserted so far at each vertex
    for (u, v) in edges:
        if degree[u] < 2 or degree[v] < 2:
            tail, head = (v, u) if degree[v] < 2 else (u, v)
            pebbles[tail] -= 1
            out[tail].add(head)
        elif not game.insert_edge(u, v):
            verts = game.reach((u, v))
            ie, il = _induced_counts(edges, loops, verts)
            witness = Witness(tuple(sorted(verts)), ie + il, ie, "edges")
            return SparsityReport("not-sparse", "pebble", n, len(edges), len(loops), witness)
        degree[u] += 1
        degree[v] += 1
    for v in loops:
        if not game.insert_loop(v):
            verts = game.reach((v,))
            ie, il = _induced_counts(edges, loops, verts)
            witness = Witness(tuple(sorted(verts)), ie + il, ie, "rows")
            return SparsityReport("not-sparse", "pebble", n, len(edges), len(loops), witness)
    verdict = _verdict(n, len(edges), len(loops))
    return SparsityReport(verdict, "pebble", n, len(edges), len(loops), game=game)


def pebble_games(
    num_vertices: int,
    edges: Iterable[Sequence[int]],
    loops: Iterable[int],
) -> tuple[_PebbleGame, _PebbleGame]:
    """The two pebble states of a sparse graph, to decide rows added later.

    The first is the (2,3) game on the simple edges, the second the (2,0)
    game on all rows, both from ``pebble_check``'s one game (see
    ``_PebbleGame.games``).  A simple edge is independent of a sparse graph
    exactly when ``insert_edge`` accepts it in both (with 4 and 1
    pebbles), a loop exactly when ``insert_loop`` accepts it in the
    second.  Raises ``RangeError`` when the graph is not sparse.
    """
    report = pebble_check(num_vertices, edges, loops)
    if report.game is None:
        raise RangeError(f"the rows are not sparse: {report.witness}")
    return report.game.games(range(num_vertices))


@dataclass(frozen=True)
class Criticality:
    """Free capacity of a subset: k uses all rows, k_bar only simple edges."""

    subset: tuple[int, ...]
    row_count: int
    edge_count: int
    k: int
    k_bar: int


def criticality(
    num_vertices: int,
    edges: Iterable[Sequence[int]],
    loops: Iterable[int],
    subset: Iterable[int],
) -> Criticality:
    """k(X) = 2|X| - rows(X) and k_bar(X) = 2|X| - edges(X) for one subset."""
    edges, loops = _normalize(num_vertices, edges, loops)
    verts = set(subset)
    for v in verts:
        if not 0 <= v < num_vertices:
            raise RangeError(f"subset vertex {v} out of range")
    ie, il = _induced_counts(edges, loops, verts)
    return Criticality(
        tuple(sorted(verts)),
        ie + il,
        ie,
        2 * len(verts) - ie - il,
        2 * len(verts) - ie,
    )


def cross_edge_count(
    edges: Iterable[Sequence[int]], a: Iterable[int], b: Iterable[int]
) -> int:
    """Edges with one end in A minus B and the other in B minus A."""
    sa, sb = set(a), set(b)
    only_a, only_b = sa - sb, sb - sa
    count = 0
    for (u, v) in edges:
        if (u in only_a and v in only_b) or (u in only_b and v in only_a):
            count += 1
    return count


__all__ = [
    "SUBSET_AUDIT_MAX_VERTICES",
    "Witness",
    "SparsityReport",
    "Criticality",
    "subset_audit",
    "pebble_check",
    "pebble_games",
    "criticality",
    "cross_edge_count",
]
