"""Symmetry-preserving extension moves, base graphs, and decomposition.

Every move appends one free vertex orbit: |group| new vertices, one per
group element in canonical order, each carrying two new rows.  Each move
class describes what it does as class data, which ``apply_extension``,
the inverse moves, the relabelling of traces and the documents all read:

* ``type``: its name in documents;
* ``ends``: the fields naming the vertices the new orbit joins, in order
  (``loop_id`` names its loop's vertex);
* ``adds``: ``"loops"`` (one loop per new vertex), ``"cycle"`` (the new
  vertex of element k joined to that of g_k·g_step, for an element g_step
  of order 3 or more that does not fix v1) or None;
* ``splits``: ``"edge"`` (the orbit of the edge joining the first two
  ends), ``"loop"`` (the orbit of loop ``loop_id``) or None, an orbit that
  must have |group| members and is deleted first.

Moves are applied in place, to one growing state (``_Growth``) that
appends each new orbit through the group's multiplication table, and the
graph is built once, at the end, by ``symgraph._assembled`` as every
derived graph is: ``generate_random``, ``replay`` and
``decompose``'s replay are linear in the number of moves, and
``apply_extension`` is the one-move case.  Moves preserve
symmetry-compatible tightness, so iterating them from a tight base graph
generates tight graphs.

``decompose`` runs the moves backwards, greedily: at each graph it takes
the first tight reduction that keeps a single core (below), strips its
free orbit, and never goes back, until only a disjoint union of
recognized base graphs remains; then it replays the moves forward and
builds the result once, in the component's labels, to certify the trace by
exact comparison with the component.  Candidate reductions are ranked
before any is decided, by a key of the reduced graph: its symmetric
components, fewest first, then whether it makes an orbit *dense* (two
loops per vertex, or an edge inside the orbit) that was not, a tie-break
only.  Every candidate of a tight graph G is G - O + A, for a free vertex
orbit O and A empty, one edge orbit or one loop orbit, and:

* G - O is sparse, because it is a subgraph of a sparse graph;
* deleting a free orbit and its rows changes no fixed count;
* so a ``Zero2Edges``, ``ZeroEdgeLoop`` or ``CycleEdge`` candidate is
  always tight, and a split candidate is tight exactly when A has |group|
  members and is independent over G - O.

The walk therefore edits one state (``_State``) in the input's vertex
ids, with two pebble games: a reduction deletes O's rows in place, then
inserts A's.  ``check_tight`` runs once, on the input, and its
``pebble_check`` is the one game played: the walk starts from the game
it finished with (``_PebbleGame.games``).  The state keeps each free
orbit's candidates and derives them again only for the orbits a
reduction touches.  Keys are worked out lazily (``_in_key_order``): none
is below (the graph's components, not dense), and those with that key,
in scan order, nearly always hold the one taken, so the keys of the
rest are counted and sorted only when none of them is.  Every count
comes from one lockstep search around the candidate's orbit
(``_apart``).  Apart from its pebble searches and the single-core check,
a level so costs what its reduction touches.  Graphs are built only near
the bottom and for the replay; ``enumerate_reductions`` stays as the
try-and-check reference.  The base graphs:

* ``p1_fixed``: one half-turn-fixed vertex with two fixed loops (order 2);
* ``p1_swap``: one fixed vertex with a swapped loop pair (order 4);
* ``pinnedN``: one free vertex orbit, two loops per vertex;
* ``lcN``: one free orbit spanned by a single n-cycle, one loop per vertex
  (any cyclic n-cycle counts, e.g. star polygons).

A vertex set of a tight graph is *tight* when it spans twice as many rows
as it has vertices.  Tight sets are closed under union and intersection,
and a graph has a *single core* when it has one least symmetric
(group-invariant) tight set.  A base graph has one, its orbit, and every
move keeps one: a symmetric tight set of the extended graph, less the new
orbit, is one of the graph before.  So a graph without a single core, a
union of several bases among them, is built from no single base.  The
walk, started on a graph with a single core, takes only reductions that
keep it, and so can end only at a single base.  One that adds nothing
back always keeps it (G - O is a tight set of G, so it holds the core); a
split is checked in the (2,0) game, where what a vertex reaches along the
arcs is the least tight set holding it; the game keeps its in-arcs, and
one search back from the orbit of the last core found usually settles
it.  When no tight reduction keeps
it, the walk drops the condition and goes on; that has been seen only
outside the certified groups.

For the cyclic groups of order 2 or odd order, the paper's construction
builds every tight graph from base graphs, and a tight reduction leaves a
tight graph, so the greedy walk needs no backtracking there if these five
inverse moves are all that construction uses.  That is checked by
experiment, not proved: no dead end has been seen in those groups, on
generated graphs or on graphs grown with cycle moves at every level.  For
other groups the same walk runs heuristically.  A graph with no tight
reduction that is not a union of bases raises ``ReductionDeadEnd``
carrying that graph.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import (
    Callable,
    ClassVar,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
    Union,
    get_args,
)

from .errors import (
    InvalidMoveError,
    NotTightError,
    RangeError,
    ReductionDeadEnd,
    SchemaError,
    UnsupportedBackendError,
)
from .sparsity import _PebbleGame, pebble_games
from .symcheck import check_tight, require_valid_action
from .symgraph import (
    GroupElement,
    GroupSpec,
    Loop,
    SymmetricGraph,
    _assembled,
    _graph_generators,
    _renaming,
    _union_find,
    induced_subgraph,
    orbits,
    symmetric_components,
)


class _Description:
    """What a move does: the class data that the module docstring lists,
    and ``repeated``, the refusal of a move whose ends repeat a vertex.  A
    move's ends are its first fields."""

    type: ClassVar[str]
    ends: ClassVar[tuple[str, ...]]
    adds: ClassVar[str | None] = None
    splits: ClassVar[str | None] = None
    repeated: ClassVar[str]


@dataclass(frozen=True)
class Zero2Edges(_Description):
    v1: int
    v2: int
    type = "zero_two_edges"
    ends = ("v1", "v2")
    repeated = "v1 and v2 must be distinct vertices"


@dataclass(frozen=True)
class ZeroEdgeLoop(_Description):
    v1: int
    type = "zero_edge_loop"
    ends = ("v1",)
    adds = "loops"


@dataclass(frozen=True)
class CycleEdge(_Description):
    v1: int
    step: int
    type = "cycle_edge"
    ends = ("v1",)
    adds = "cycle"


@dataclass(frozen=True)
class OneEdgeSplit(_Description):
    x0: int
    y0: int
    z0: int
    type = "one_edge_split"
    ends = ("x0", "y0", "z0")
    splits = "edge"
    repeated = "z0 must differ from the split edge's ends"


@dataclass(frozen=True)
class OneLoopSplit(_Description):
    loop_id: int
    y0: int
    type = "one_loop_split"
    ends = ("loop_id", "y0")
    adds = "loops"
    splits = "loop"
    repeated = "y0 must differ from the loop's vertex"


Move = Union[Zero2Edges, ZeroEdgeLoop, CycleEdge, OneEdgeSplit, OneLoopSplit]
# every kind but the cycle move, by the profile of the orbit it adds: the
# neighbours of one of its vertices, one per end, and the loops at it
_BY_PROFILE = {
    (len(k.ends), int(k.adds == "loops")): k for k in get_args(Move) if k.adds != "cycle"
}


def _split_rows(
    kind: _Description | type[_Description], ends: Sequence[int], images: Callable[[int], Sequence[int]]
) -> list[tuple[int, int | None]]:
    """The rows of the orbit a ``kind`` move with these ends splits, where
    ``images(u)`` lists u's images, element k's at k: the edge orbit of the
    first two ends, sorted, a loop (``(u, None)``) at each image of the
    first end, element k's at k, or none."""
    if kind.splits == "edge":
        pairs = zip(images(ends[0]), images(ends[1]))
        return sorted({(a, b) if a < b else (b, a) for a, b in pairs})
    if kind.splits == "loop":
        return [(a, None) for a in images(ends[0])]
    return []


def _relabel(move: Move, vertex: Sequence[int] | Mapping[int, int], loop: Mapping[int, int]) -> Move:
    """The move in other labels: each end through ``vertex``, or ``loop``
    for ``loop_id``, and ``step`` as it is.  A move that splits nothing
    lists its ends in increasing order."""
    values = list(vars(move).values())
    ends = [loop[x] if name == "loop_id" else vertex[x] for name, x in zip(move.ends, values)]
    if move.splits is None:
        ends.sort()
    return type(move)(*ends, *values[len(ends) :])


def _generators(group: GroupSpec) -> list[tuple[str, list[int]]]:
    """The group's generators, rotation first, each as its field-name stem
    and k -> the index of generator * element k: where it moves element
    k's member of a new orbit."""
    gens = []
    if group.rotation_order > 1:
        gens.append(("rotation", GroupElement(1, False)))
    if group.has_reflection:
        gens.append(("reflection", GroupElement(0, True)))
    elements = group.elements()
    return [(name, [group.index(group.compose(g, el)) for el in elements]) for name, g in gens]


class _Growth:
    """A graph grown by extension moves in place, built by ``build``.

    It holds, per group element in canonical order, the vertex table and
    the loop map {id: image id}, read once from the start graph's
    ``action``; the loop records by id, the edge set and the next loop id.
    ``apply`` appends a move's orbit through the group's multiplication
    table: element j sends new vertex n + k to n + (the index of g_j g_k),
    and new loop id base + k likewise.  A move so costs O(|group|^2),
    whatever the graph's size.  The edges and loop ids a move adds are
    checked for duplicates as they go in, and a split orbit for closure
    under the generators as it goes out; ``build`` runs every other check
    of ``SymmetricGraph``, so the graph built after any sequence of moves
    is the one that building after every move would give.
    """

    def __init__(self, graph: SymmetricGraph) -> None:
        group = self.group = graph.group
        elements = group.elements()
        self.t = len(elements)
        self.product = [[group.index(group.compose(a, b)) for b in elements] for a in elements]
        # each generator as its field-name stem and its element index
        self.gens = [(name, shift[0]) for name, shift in _generators(group)]
        self.n = graph.num_vertices
        vimages, limages = graph.action
        ids = graph.loop_ids
        self.vertex = vimages.tolist()
        self.loop = [{i: ids[k] for i, k in zip(ids, row)} for row in limages.tolist()]
        self.loops = {l.id: l for l in graph.loops}
        self.edges = set(graph.edges)
        self.next_loop = max(self.loops, default=-1) + 1

    def images(self, v: int) -> list[int]:
        """Where each group element, in canonical order, sends vertex v."""
        return [table[v] for table in self.vertex]

    def apply(self, move: Move) -> None:
        """Apply one move: the new orbit's vertices are n .. n+|group|-1,
        vertex n+k for group element k, and new loop ids continue from the
        largest id the graph had before the move."""
        n, t = self.n, self.t
        if not isinstance(move, _Description):
            raise InvalidMoveError(f"unknown move {move!r}")
        values, splits, adds = vars(move), move.splits, move.adds
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidMoveError(f"{name} must be an integer, not {value!r}")
            if name == "loop_id":
                if value not in self.loops:
                    raise InvalidMoveError(f"no loop with id {value}")
            elif name in move.ends and not 0 <= value < n:
                raise InvalidMoveError(f"{name} {value} is not a vertex of the graph")
        ends = list(values.values())[: len(move.ends)]
        if splits == "edge":
            x, y = ends[:2]
            if x == y or (min(x, y), max(x, y)) not in self.edges:
                raise InvalidMoveError(f"({x}, {y}) is not an edge")
            orbit = set(_split_rows(move, ends, self.images))
        elif splits == "loop":  # loop_id names its loop's vertex
            ends[0] = self.loops[move.loop_id].vertex
            orbit = {table[move.loop_id] for table in self.loop}
        if len(set(ends)) < len(ends):
            raise InvalidMoveError(move.repeated)
        if adds == "cycle":
            step, elements = move.step, self.group.elements()
            if not 0 <= step < t or self.group.element_order(elements[step]) < 3:
                raise InvalidMoveError(
                    f"step {step} does not name a group element of order 3 or more"
                )
            if self.vertex[step][ends[0]] == ends[0]:  # each cycle a wheel around v1
                raise InvalidMoveError(f"the step's element fixes v1 {ends[0]}")
        if splits is not None and len(orbit) != t:
            raise InvalidMoveError(
                f"the split {splits}'s orbit must have one {splits} per group element"
            )
        if splits == "edge":
            self.edges -= orbit
        elif splits == "loop":
            for name, j in self.gens:
                if any(self.loop[j][i] not in orbit for i in orbit):
                    raise RangeError(f"{name}_loop_perm is not a permutation of the loop ids")
            for i in orbit:
                del self.loops[i]
                for table in self.loop:
                    del table[i]
        for table, row in zip(self.vertex, self.product):
            table.extend(n + s for s in row)
        for end in ends:
            for k, a in enumerate(self.images(end)):
                if (a, n + k) in self.edges:
                    raise RangeError(f"duplicate edge {(a, n + k)}")
                self.edges.add((a, n + k))
        if adds == "cycle":  # one edge orbit of t members, as the order is 3 or more
            for k, row in enumerate(self.product):
                self.edges.add((n + min(k, row[move.step]), n + max(k, row[move.step])))
        if adds == "loops":
            base = self.next_loop
            for k in range(t):
                if base + k in self.loops:
                    raise RangeError("duplicate loop id")
                self.loops[base + k] = Loop(base + k, n + k)
            for table, row in zip(self.loop, self.product):
                table.update((base + k, base + s) for k, s in enumerate(row))
            self.next_loop = base + t
        self.n = n + t

    def build(
        self,
        vertex_map: Sequence[int] | None = None,
        loop_id_map: Mapping[int, int] | None = None,
    ) -> SymmetricGraph:
        """The grown graph, built once by ``symgraph._assembled`` and
        checked as every ``SymmetricGraph`` is.  With ``vertex_map`` and
        ``loop_id_map`` it is built in those labels: grown vertex v is
        ``vertex_map[v]`` and loop id i is ``loop_id_map[i]``, the maps
        checked as ``relabel`` checks them."""
        if vertex_map is None:
            vm = {v: v for v in range(self.n)}
        else:
            vm = _renaming(self.n, self.loops, vertex_map, loop_id_map)
        gens = [(name, self.vertex[j], self.loop[j].items()) for name, j in self.gens]
        return _assembled(self.group, self.edges, self.loops.values(), gens, vm, loop_id_map)


def _grown(
    graph: SymmetricGraph,
    moves: Iterable[Move],
    vertex_map: Sequence[int] | None = None,
    loop_id_map: Mapping[int, int] | None = None,
) -> SymmetricGraph:
    """``graph`` after the moves, built once, in the labels that
    ``_Growth.build`` takes when they are given."""
    growth = _Growth(graph)
    for move in moves:
        growth.apply(move)
    return growth.build(vertex_map, loop_id_map)


def apply_extension(graph: SymmetricGraph, move: Move) -> SymmetricGraph:
    """Apply one move; the new orbit's vertices are n .. n+|group|-1.

    New vertex n+k corresponds to group element k in canonical order; new
    loop ids continue from the largest existing id.  Raises
    ``InvalidMoveError`` for a move that does not apply, also for a vertex
    or loop id that is not an integer.
    """
    return _grown(graph, (move,))


# -- base graphs -------------------------------------------------------------


def base_graph(label: str) -> SymmetricGraph:
    """Construct a base graph from its label."""
    if label in ("p1_fixed", "p1_swap"):
        swap = label == "p1_swap"
        return SymmetricGraph(
            GroupSpec("cyclic", 4 if swap else 2),
            1,
            (),
            (Loop(0, 0), Loop(1, 0)),
            rotation_vertex_perm=(0,),
            rotation_loop_perm={0: int(swap), 1: 1 - swap},
        )
    if label.startswith("pinned"):
        tail = label[len("pinned") :]
        if not tail.isdigit() or int(tail) < 1:
            raise SchemaError(f"bad base label {label!r}")
        n = int(tail)
        loops = tuple(Loop(2 * i, i) for i in range(n)) + tuple(
            Loop(2 * i + 1, i) for i in range(n)
        )
        if n == 1:
            return SymmetricGraph(GroupSpec("cyclic", 1), 1, (), loops)
        shift = tuple((i + 1) % n for i in range(n))
        lperm = {2 * i: 2 * ((i + 1) % n) for i in range(n)}
        lperm |= {2 * i + 1: 2 * ((i + 1) % n) + 1 for i in range(n)}
        return SymmetricGraph(
            GroupSpec("cyclic", n),
            n,
            (),
            loops,
            rotation_vertex_perm=shift,
            rotation_loop_perm=lperm,
        )
    if label.startswith("lc"):
        body = label[len("lc") :]
        n_str, _, d_str = body.partition("x")
        if not n_str.isdigit() or (d_str and not d_str.isdigit()):
            raise SchemaError(f"bad looped cycle label {label!r}")
        n = int(n_str)
        step = int(d_str) if d_str else 1
        if n < 3 or step < 1 or n % step != 0 or (step > 1 and n // step < 3):
            raise SchemaError(f"bad looped cycle label {label!r}")
        shift = tuple((i + 1) % n for i in range(n))
        return SymmetricGraph(
            GroupSpec("cyclic", n),
            n,
            tuple(sorted(tuple(sorted((i, (i + step) % n))) for i in range(n))),
            tuple(Loop(i, i) for i in range(n)),
            rotation_vertex_perm=shift,
            rotation_loop_perm={i: (i + 1) % n for i in range(n)},
        )
    raise SchemaError(f"unknown base label {label!r}")


def _cycle_cover_count(n: int, edges: tuple[tuple[int, int], ...]) -> int | None:
    """Number of cycles when the edges are disjoint cycles covering 0..n-1."""
    degree = Counter(v for e in edges for v in e)
    if len(edges) != n or n < 3 or any(degree[v] != 2 for v in range(n)):
        return None
    return len(set(_union_find(n, edges)))


def is_base_graph(graph: SymmetricGraph) -> str | None:
    """Label of the base graph this graph is, or None.

    Recognition is up to vertex order.  A single free orbit carrying one
    loop per vertex whose edges are a 2-regular cycle cover counts as a
    looped cycle: one n-cycle (any step size coprime to n, so star polygon
    forms included) is ``lcN``, and a step size sharing a factor d with n
    splits into d rotated copies of a looped (n/d)-cycle, labeled ``lcNxD``.
    The split forms arise as irreducible terminals exactly because every
    neighbour of an orbit vertex lies inside the orbit itself.
    """
    group = graph.group
    if group.kind != "cyclic":
        return None
    n = group.order
    nv = graph.num_vertices

    if nv == 1 and not graph.edges and len(graph.loops) == 2:
        if n == 1:
            return "pinned1"
        fixed = graph.rotation_loop_perm == graph.loop_ids
        if n == 2 and fixed:
            return "p1_fixed"
        if n == 4 and not fixed:
            return "p1_swap"
        return None

    orbs = orbits(graph)
    if nv != n or len(orbs.vertices) != 1:  # one free vertex orbit
        return None
    looped = Counter(l.vertex for l in graph.loops)
    if (
        not graph.edges
        and all(looped[v] == 2 for v in range(nv))
        and all(len(o) == n for o in orbs.loops)
    ):
        return f"pinned{n}"
    if n >= 3 and len(orbs.loops) == 1 and all(looped[v] == 1 for v in range(nv)):
        pieces = _cycle_cover_count(nv, graph.edges)
        if pieces == 1:
            return f"lc{n}"
        if pieces is not None:
            return f"lc{n}x{pieces}"
    return None


def default_bases(group: GroupSpec) -> tuple[str, ...]:
    """Base graph labels available for constructing graphs in this group."""
    if group.kind != "cyclic":
        return ()
    n = group.order
    if n == 1:
        return ("pinned1",)
    if n == 2:
        return ("p1_fixed", "pinned2")
    if n == 4:
        return ("p1_swap", "pinned4")
    if n % 2 == 1:
        return (f"pinned{n}", f"lc{n}")
    return (f"pinned{n}",)


def certified_group(group: GroupSpec) -> bool:
    """Groups for which tight graphs provably decompose to a base."""
    return group.kind == "cyclic" and (group.order == 2 or group.order % 2 == 1)


# -- reductions --------------------------------------------------------------


@dataclass(frozen=True)
class Reduction:
    """One inverse move: delete a free vertex orbit, maybe add an orbit back.

    ``move`` is the forward move stated in reduced-graph labels;
    ``orbit_vertices[k]`` is the deleted vertex for group element k, and
    ``orbit_loops[k]`` the deleted loop id when the profile had one.
    """

    move: Move
    graph: SymmetricGraph
    orbit_vertices: tuple[int, ...]
    orbit_loops: tuple[int, ...]
    vertex_map: tuple[int | None, ...]


def _reduce(
    graph: SymmetricGraph,
    v: int,
    loop: int | None,
    kind: type,
    ends: tuple[int, ...],
) -> Reduction:
    """Delete v's orbit, and the orbit of the loop with id ``loop`` when
    given, then state the ``kind`` move that restores it from ``ends``, its
    ends in ``graph`` labels (a split loop named by its vertex) and a
    cycle's step last, as it is: the reference for ``_State.push``.

    The reduced graph is built once, by ``symgraph._assembled``, from
    ``graph``'s rows and A's, in ``graph`` labels: kept vertices are
    renumbered in order and keep their loop ids; a split's new loop orbit
    continues from the largest kept id, element k's loop first, as in
    ``apply_extension``.
    """
    group = graph.group
    vimages, limages = graph.action
    orbit_vertices = tuple(vimages[:, v].tolist())
    orbit_loops = ()
    if loop is not None:
        ids = graph.loop_ids
        orbit_loops = tuple(ids[k] for k in limages[:, graph.loop_index(loop)].tolist())
    deleted = set(orbit_vertices)
    vmap = {u: i for i, u in enumerate(u for u in range(graph.num_vertices) if u not in deleted)}
    loops = [l for l in graph.loops if l.vertex in vmap]
    kept_ids = {l.id for l in loops}
    new_id = max(kept_ids, default=-1) + 1
    # the deleted loops leave the perms before A's go in: a new id can be a deleted one
    gens = [
        (name, perm, [(i, image) for i, image in pairs if i in kept_ids])
        for name, perm, pairs in _graph_generators(graph)
    ]
    edges = list(graph.edges)
    added = _split_rows(kind, ends, lambda u: vimages[:, u].tolist())
    if kind.splits == "loop":
        loops += (Loop(new_id + k, a) for k, (a, _) in enumerate(added))
        for (_, _, pairs), (_, shift) in zip(gens, _generators(group)):
            pairs += ((new_id + k, new_id + s) for k, s in enumerate(shift))
    else:
        edges += added
    red = _assembled(group, edges, loops, gens, vmap)
    move = _relabel(kind(*ends), vmap, {ends[0]: new_id})
    vertex_map = tuple(vmap.get(u) for u in range(graph.num_vertices))
    return Reduction(move, red, orbit_vertices, orbit_loops, vertex_map)


Candidate = tuple[int, int | None, type, tuple[int, ...]]
# (symmetric components of the reduced graph, whether it makes an orbit
# dense); see ``_in_key_order``
Key = tuple[int, bool]


class _Step(NamedTuple):
    """One reduction on a reduction path, in the start graph's vertex ids
    and the loop ids of the graph it reduces: the forward move, and the
    deleted orbit's vertices and loops, element k's at k."""

    move: Move
    orbit_vertices: tuple[int, ...]
    orbit_loops: tuple[int, ...]


class _State:
    """The graph the greedy walk has reached, edited in place and kept in
    the start graph's vertex ids.

    ``push`` reduces it to G - O + A; ``steps`` is the path from the start.
    ``alive`` marks the kept vertices; loop ids are the ones the ``_reduce``
    chain gives, so ``graph()`` builds the graph that chain builds.  A
    deleted vertex stays, isolated, in the two pebble ``games``.
    ``quotient`` counts the edges that join two orbits, and ``dense`` holds
    the alive orbits with two loops per vertex or an edge inside.  Orbits,
    their representatives (smallest vertices) and sizes never change, so
    they are read once from ``start.action``.

    ``kept[r]`` holds the candidate reductions of the free orbit r, as
    ``_orbit_candidates`` gives them, for every orbit that has one;
    ``order`` lists those orbits as ``(cycle, r)``, in increasing order, so
    the orbits with a cycle candidate come last.  A push derives them again
    only for the orbits whose neighbours, loops or dense flag it changes, or
    whose neighbours' it changes.
    """

    def __init__(
        self, start: SymmetricGraph, games: tuple[_PebbleGame, _PebbleGame] | None = None
    ) -> None:
        n, group = start.num_vertices, start.group
        self.start = start
        self.t = group.size
        self.orbit = list(zip(*start.action[0].tolist()))
        self.rep = rep = [min(o) for o in self.orbit]
        self.size = Counter(rep)
        self.alive = [True] * n
        self.num_alive = n
        # filled in bulk, members and keys in the order one _join per edge gives
        adjacent: list[list[int]] = [[] for _ in range(n)]
        for a, b in start.edges:
            adjacent[a].append(b)
            adjacent[b].append(a)
        self.nbrs: list[set[int]] = [set(heads) for heads in adjacent]
        self.quotient: dict[int, Counter[int]] = {r: Counter() for r in self.size}
        pairs = ((rep[a], rep[b]) for a, b in start.edges)
        links = Counter((ra, rb) if ra < rb else (rb, ra) for ra, rb in pairs)
        for (ra, rb), count in links.items():
            if ra != rb:
                self.quotient[ra][rb] = self.quotient[rb][ra] = count
        gens = _graph_generators(start)
        self.gens = [
            (name, perm, shift) for (name, perm, _), (_, shift) in zip(gens, _generators(group))
        ]
        self.loops_at: list[list[int]] = [[] for _ in range(n)]
        self.loops: dict[int, tuple[Loop, tuple[int, ...]]] = {}
        perms = [dict(pairs) for _, _, pairs in gens]
        for l in start.loops:
            self.loops_at[l.vertex].append(l.id)
            self.loops[l.id] = (l, tuple(perm[l.id] for perm in perms))
        self.dense = {rep[v] for v in range(n) if len(self.loops_at[v]) >= 2}
        self.dense |= {rep[a] for a, b in start.edges if rep[a] == rep[b]}
        self.steps: list[_Step] = []
        self.kept: dict[int, list[tuple[bool, Candidate]]] = {}
        self.order: list[tuple[bool, int]] = []
        self._refresh(self.size)
        self.anchor: int | None = None  # a vertex of the core, once one is found
        if games is not None:
            self.games = games

    @cached_property
    def games(self) -> tuple[_PebbleGame, _PebbleGame]:
        """The start's ``pebble_games``, built at the first push unless
        handed over: reading candidates, as ``enumerate_reductions`` does,
        needs none."""
        start = self.start
        return pebble_games(start.num_vertices, start.edges, start.loop_vertices)

    def _refresh(self, orbits: Iterable[int]) -> None:
        """Derive the candidates of these orbits again (none for an orbit
        that is deleted or not free)."""
        for r in orbits:
            cands = self.kept.pop(r, None)
            if cands:
                del self.order[bisect_left(self.order, (cands[0][1][2].adds == "cycle", r))]
            if not self.alive[r] or self.size[r] != self.t:
                continue
            cands = _orbit_candidates(self, r)
            if cands:
                insort(self.order, (cands[0][1][2].adds == "cycle", r))
                self.kept[r] = cands

    @cached_property
    def single_core(self) -> bool:
        """Whether ``push`` keeps a single core: the graph has one, read at
        the first split, and the walk has not given the condition up."""
        return self._single_core(())

    def _single_core(self, deleted: Collection[int]) -> bool:
        """Whether the graph on the alive vertices outside ``deleted``, with
        every alive vertex out of pebbles in the (2,0) game, has a single
        core.

        What a vertex reaches along the arcs is the least tight set holding
        it, so the least tight sets are the strongly connected components
        no arc leaves, and the core is single exactly when every vertex
        reaches the orbit of one of them.  When every vertex reaches the
        orbit of the ``anchor``, what that orbit reaches lies in every
        symmetric tight set, so the core is single; that takes one search
        over the in-arcs.  Otherwise the last root of a search over the
        in-arcs lies in such a component; a second search, from its
        orbit, must reach every vertex, and its root becomes the anchor.
        The (2,0) game keeps its in-arcs from the first check on.
        """
        row_game = self.games[1]
        if row_game.into is None:
            row_game.keep_in_arcs()
        into = row_game.into
        count = self.num_alive - len(deleted)  # deleted vertices are alive

        def search(roots: Iterable[int], seen: set[int]) -> None:
            stack = [r for r in roots if r not in seen]
            seen.update(stack)
            while stack:
                for w in into[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)

        anchor = self.anchor
        if anchor is not None and self.alive[anchor] and anchor not in deleted:
            seen: set[int] = set()
            search(self.orbit[anchor], seen)
            if len(seen) == count:
                return True
        seen = set()
        root = -1
        for u, kept in enumerate(self.alive):
            if kept and u not in seen and u not in deleted:
                root = u
                search((u,), seen)
        seen = set()
        search(self.orbit[root], seen)
        if len(seen) < count:
            return False
        self.anchor = root
        return True

    def graph(self) -> SymmetricGraph:
        """The graph reached, built by ``symgraph._assembled``: kept
        vertices in order, loop ids kept."""
        keep = [u for u, kept in enumerate(self.alive) if kept]
        edges = ((u, w) for u in keep for w in self.nbrs[u] if u < w)
        loops = [l for l, _ in self.loops.values()]
        gens = [
            (name, perm, [(i, im[g]) for i, (_, im) in self.loops.items()])
            for g, (name, perm, _) in enumerate(self.gens)
        ]
        vm = {u: i for i, u in enumerate(keep)}
        return _assembled(self.start.group, edges, loops, gens, vm)

    def _join(self, a: int, b: int, step: int) -> None:
        """Add (``step`` 1) or remove (-1) the edge a-b in the neighbour
        sets and the quotient."""
        for x, y in ((a, b), (b, a)):
            (self.nbrs[x].add if step > 0 else self.nbrs[x].remove)(y)
            links, ry = self.quotient[self.rep[x]], self.rep[y]
            if self.rep[x] != ry:
                links[ry] += step
                if not links[ry]:
                    del links[ry]

    def _play(self, row: tuple[int, int | None]) -> bool:
        """Insert the edge u-w (4 pebbles in the (2,3) game, 1 in the (2,0)
        game), or a loop at u when w is None (1 in the (2,0) game); False,
        with the row in neither game, when it is dependent."""
        edge_game, row_game = self.games
        u, w = row
        if w is None:
            return row_game.insert_loop(u)
        if not edge_game.insert_edge(u, w, 4):
            return False
        if row_game.insert_edge(u, w, 1):
            return True
        edge_game.delete(u, w)
        return False

    def _unplay(self, row: tuple[int, int | None]) -> None:
        """Delete a row, as ``_play`` takes it, from the games."""
        u, w = row
        if w is not None:
            self.games[0].delete(u, w)
        self.games[1].delete(u, w)

    def push(self, cand: Candidate) -> bool:
        """Reduce the graph by ``cand``, or return False, with the graph as
        it was, when the reduced graph is not tight, or loses the single
        core ``single_core`` asks it to keep.

        O's rows leave the games with no search (an arc into O returns its
        pebble to its tail), each edge inside O once; then A's rows go in.
        When one of them is dependent, or A is in and the core splits, A's
        rows played so far leave the games and O's go back in, which they
        do, since G is independent.  An edge orbit of fewer than |group|
        members is refused unplayed: an element fixes one of its edges, and
        it has fewer rows than O took.  A taken push derives the
        candidates again of O's neighbour orbits, and of A's end orbits and
        their neighbours.
        """
        v, _, kind, args = cand
        orbit, rep, x = self.orbit[v], self.rep, args[0]
        added = _split_rows(kind, args, self.orbit.__getitem__)
        if 0 < len(added) < self.t:
            return False
        rows = [(u, w) for u in orbit for w in self.nbrs[u] if rep[w] != v or u < w]
        rows += [(u, None) for u in orbit for _ in self.loops_at[u]]
        single = bool(added) and self.single_core
        for row in rows:
            self._unplay(row)
        played = 0
        while played < len(added) and self._play(added[played]):
            played += 1
        if played < len(added) or single and not self._single_core(orbit):
            for row in added[:played]:
                self._unplay(row)
            for row in rows:
                self._play(row)
            return False

        touched = {v}
        for u, w in rows:
            if w is not None:
                self._join(u, w, -1)
                touched.add(rep[w])
        del self.quotient[v]
        self.dense.discard(v)
        for u in orbit:
            self.alive[u] = False
        self.num_alive -= self.t
        loop_ids = tuple(i for u in orbit for i in self.loops_at[u])
        for i in loop_ids:
            del self.loops[i]
        new_loop = max(self.loops, default=-1) + 1
        for k, (a, b) in enumerate(added):
            if b is not None:
                self._join(a, b, 1)
            else:
                shifted = tuple(new_loop + shift[k] for _, _, shift in self.gens)
                self.loops[new_loop + k] = (Loop(new_loop + k, a), shifted)
                self.loops_at[a].append(new_loop + k)
        if len(self.loops_at[x]) >= 2 or kind.splits == "edge" and rep[x] == rep[args[1]]:
            self.dense.add(rep[x])
        if added:  # an orbit next to A's ends has candidates only if it had
            a, b = added[0]  # every row of A joins the same orbits
            for end in {rep[a], rep[a if b is None else b]}:
                touched.update(r for r in self.quotient[end] if r in self.kept)
        self._refresh(touched)
        # the ends keep their ids; a split loop, named by its vertex, takes
        # the new loop orbit's first id
        move = _relabel(kind(*args), range(len(self.alive)), {x: new_loop})
        self.steps.append(_Step(move, orbit, loop_ids))
        return True


def _orbit_candidates(state: _State, v: int) -> list[tuple[bool, Candidate]]:
    """The structurally valid deletions of the free orbit of v, unbuilt and
    in the start graph's vertex ids, in a fixed order.

    Each comes as ``(dense, (v, loop, kind, ends))``: the arguments of
    ``_State.push`` and ``_reduce`` (``loop`` is a loop id), and whether A
    makes an orbit dense that was not: a loop split whose loops give a
    vertex its second loop, or an edge split whose edge orbit lies inside
    one orbit.  An orbit whose neighbours all lie outside gives those of
    each kind whose new orbit it can be: a neighbour per end, and a loop
    per vertex when the kind adds loops; the ends its split orbit lies on
    come first, in every choice of them, and the rest in increasing order.
    A loopless orbit whose vertices have three neighbours, two inside the
    orbit, gives one ``CycleEdge`` candidate, not dense: its ends are v's
    neighbour outside the orbit and the index of the smaller element that
    sends v to a neighbour inside.  Those are exactly the orbits an
    extension can have created.
    """
    t, rep, nbrs, loops_at = state.t, state.rep, state.nbrs, state.loops_at
    out = sorted(nbrs[v])
    inside = [u for u in out if rep[u] == v]
    if inside:
        if len(out) == 3 and len(inside) == 2 and not loops_at[v]:
            # the two are g v and g^-1 v for one g of order 3 or more, or
            # else h v and h' v for two elements of order 2
            steps = [state.orbit[v].index(u) for u in inside]
            if state.orbit[inside[1]][steps[0]] == v:
                (x,) = set(out) - set(inside)
                return [(False, (v, None, CycleEdge, (x, min(steps))))]
        return []
    loops = loops_at[v]
    kind = _BY_PROFILE.get((len(out), len(loops)))
    if kind is None:
        return []
    loop = loops[0] if loops else None
    if kind.splits is None:
        return [(False, (v, loop, kind, tuple(out)))]
    found = []
    if kind.splits == "edge":  # the split edge's ends first, then the third
        for ends in ((out[0], out[1], out[2]), (out[0], out[2], out[1]), (out[1], out[2], out[0])):
            x, y = ends[:2]
            if y not in nbrs[x]:
                found.append((rep[x] == rep[y] and rep[x] not in state.dense, (v, loop, kind, ends)))
    else:  # the split loop's vertex first; the t new loops spread evenly over its orbit
        for x, y in ((out[0], out[1]), (out[1], out[0])):
            looped = len(loops_at[x]) + t // state.size[rep[x]] >= 2
            found.append((looped and rep[x] not in state.dense, (v, loop, kind, (x, y))))
    return found


def _components(comps: int, label: dict[int, int], cand: Candidate, rep: list[int]) -> int:
    """The symmetric components of G - O + A, for a candidate that deletes
    O, from the ``comps`` of G and ``label``, the piece of G - O that each
    of O's neighbour orbits lies in (``_apart``): O's component falls into
    as many pieces as there are labels, an edge orbit x1-x2 joins two of
    them exactly when x1 and x2 lie apart, and a loop orbit joins none."""
    _, _, kind, ends = cand
    count = comps - 1 + len(set(label.values()))
    if kind.splits == "edge":
        count -= label[rep[ends[0]]] != label[rep[ends[1]]]
    return count


def _scan(state: _State) -> Iterator[tuple[bool, Candidate]]:
    """Every candidate of the state's graph, as ``(dense, candidate)``, in
    scan order: the kept candidates (``_orbit_candidates``) of the orbits
    in ``order``.  On a fresh ``_State`` this is the full scan from
    scratch."""
    for _, v in state.order:
        yield from state.kept[v]


def _apart(quotient: dict[int, Collection[int]], v: int) -> dict[int, int]:
    """The piece of the quotient less v that each neighbour of v lies in,
    labelled by one of the neighbours.

    One search per neighbour, in lockstep: each in turn expands one node.
    Two that meet go on as one; one that runs out has searched its whole
    piece.  It stops as soon as at most one search still runs, so its cost
    is set by where the searches meet, or by all the pieces but the
    largest, not by the graph.
    """
    label = {r: r for r in quotient[v]}
    if len(label) < 2:
        return label
    owner = dict(label)  # node -> the neighbour whose search reached it
    owner[v] = v
    todo = {r: deque((r,)) for r in label}  # the running searches, by label
    while len(todo) > 1:
        for r in list(todo):
            queue = todo.get(r)
            if queue is None:  # merged this round
                continue
            if not queue:
                del todo[r]
                continue
            for y in quotient[queue.popleft()]:
                s = owner.get(y)
                if s is None:
                    owner[y] = r
                    queue.append(y)
                elif s != v and label[s] != r:  # a running search: merge
                    other = label[s]
                    queue.extend(todo.pop(other))
                    for u, l in label.items():
                        if l == other:
                            label[u] = r
    return label


def _in_key_order(state: _State, comps: int) -> Iterator[tuple[Key, Candidate]]:
    """The state's candidates with their keys, sorted stably by key from
    scan order (``_scan``), with keys worked out only as far as needed;
    ``comps`` counts the graph's symmetric components.

    A key is ``(components, dense)``: the symmetric components of
    G - O + A, that is of the orbit-quotient graph, counted from the
    pieces ``_apart`` finds around O once per orbit, and the candidate's
    dense flag.  No key is less than ``(comps, False)``: every candidate's
    orbit has a neighbour outside it, so deleting the orbit leaves its
    component in one piece or more, and an edge orbit joins two only where
    it left two or more.  One pass over the scan yields the candidates
    with that key as it meets them; they nearly always hold the one taken.
    Only when the walk takes none of them are the keys of the rest counted
    and sorted.
    """
    least = (comps, False)
    labels: dict[int, dict[int, int]] = {}

    def components(cand: Candidate) -> int:
        v = cand[0]
        if v not in labels:
            labels[v] = _apart(state.quotient, v)
        return _components(comps, labels[v], cand, state.rep)

    rest = []
    # a taken push edits the scan, but the walk then asks for no more
    for dense, cand in _scan(state):
        if not dense and components(cand) == comps:
            yield least, cand
        else:
            rest.append((dense, cand))
    yield from sorted((((components(cand), dense), cand) for dense, cand in rest), key=itemgetter(0))


def enumerate_reductions(graph: SymmetricGraph) -> tuple[Reduction, ...]:
    """All reductions whose result is still tight (try-and-check).

    Every candidate is built by ``_reduce`` and checked by ``check_tight``
    from scratch; this is the reference that ``decompose``'s incremental
    walk is tested against.
    """
    if not check_tight(graph).tight:
        raise NotTightError("reductions are only defined on tight graphs")
    reds = (_reduce(graph, *cand) for _, cand in _scan(_State(graph)))
    return tuple(r for r in reds if check_tight(r.graph).tight)


# -- decomposition -----------------------------------------------------------


@dataclass(frozen=True)
class ComponentTrace:
    """Construction recipe for one symmetric component.

    A reduction can disconnect a component, so the terminal object is a
    disjoint union of base graphs: ``base_graph`` stores it concretely and
    ``base_label`` joins the per-piece labels with ``+``.  Replaying
    ``moves`` from ``base_graph`` rebuilds the component; ``embedding[i]``
    is the original vertex the replayed vertex i lands on, and
    ``loop_embedding`` pairs replayed loop ids with original ids.
    """

    base_label: str
    base_graph: SymmetricGraph
    moves: tuple[Move, ...]
    embedding: tuple[int, ...]
    loop_embedding: tuple[tuple[int, int], ...]


def _component_graph(
    graph: SymmetricGraph, comps: Collection[tuple[int, ...]], comp: Iterable[int]
) -> tuple[SymmetricGraph, dict[int, int]]:
    """The graph of ``comp``, one of the symmetric components ``comps`` of
    ``graph``, and the map from ``graph``'s vertices to its own, as
    ``induced_subgraph`` gives them.  A graph of one component is its own,
    with the identity map: it keeps the action, validation and edge table
    it has cached, and nothing is copied."""
    if len(comps) == 1:
        return graph, {u: u for u in range(graph.num_vertices)}
    return induced_subgraph(graph, comp)


def base_union_labels(graph: SymmetricGraph) -> tuple[str, ...] | None:
    """Labels when every symmetric component is a base graph, else None.

    A base graph has 1 or ``group.order`` vertices, so a component larger
    than the group rules the graph out before any subgraph is built, and a
    graph of one component is read as itself.
    """
    comps = symmetric_components(graph)
    if any(len(comp) > graph.group.size for comp in comps):
        return None
    labels = tuple(is_base_graph(_component_graph(graph, comps, comp)[0]) for comp in comps)
    return None if None in labels else labels


@dataclass(frozen=True)
class Decomposition:
    graph: SymmetricGraph
    components: tuple[ComponentTrace, ...]
    certified: bool

    @property
    def total_moves(self) -> int:
        return sum(len(c.moves) for c in self.components)


def replay(trace: ComponentTrace) -> SymmetricGraph:
    """Apply the trace's moves to its base graph, in place, and build the
    result once."""
    return _grown(trace.base_graph, trace.moves)


# the steps from the start, the base labels, and the base graph
Path = tuple[tuple[_Step, ...], tuple[str, ...], SymmetricGraph]


def _walk(
    start: SymmetricGraph, games: tuple[_PebbleGame, _PebbleGame] | None = None
) -> Path:
    """Greedy reduction path from ``start``, a tight graph of one symmetric
    component, down to a union of base graphs; ``games`` are its pebble
    games when the caller has them.

    The walk counts components from that one on: each taken reduction's
    key holds the count of the graph it leaves.  At each graph it takes the
    first tight reduction in key order that keeps a single core, decided by
    ``_State.push``, and never undoes one; when none keeps it, the walk
    gives the condition up and takes the first tight one.  The candidates
    come in key order from ``_in_key_order``.  A graph is built only for
    ``base_union_labels``, on at most ``components * |group|`` vertices,
    and for a dead end: a graph that is not a union of bases and has no
    tight reduction raises ``ReductionDeadEnd`` carrying it.
    """
    t = start.group.size
    state = _State(start, games)
    comps = 1
    while True:
        # a union of bases has at most |group| vertices per piece
        if state.num_alive <= comps * t:
            base = state.graph()
            labels = base_union_labels(base)
            if labels is not None:
                return tuple(state.steps), labels, base
        for key, cand in _in_key_order(state, comps):
            if state.push(cand):
                comps = key[0]
                break
        else:
            if state.single_core:
                state.single_core = False
                continue
            stuck = state.graph()
            raise ReductionDeadEnd(
                f"tight graph on {stuck.num_vertices} vertices (group"
                f" {start.group.name}), {len(state.steps)} reductions below a"
                " component, is not a union of base graphs and admits no"
                " tightness-preserving reduction",
                stuck,
            )


def decompose(graph: SymmetricGraph) -> Decomposition:
    """Reduce every symmetric component to a base graph and certify replay.

    The input is checked once, by ``check_tight``, and its pebble game is
    played once: each component's walk (``_walk``) starts from the games
    ``pebble_check`` finished with, restricted to the component, and
    decides each reduction in them.  An input of one component is walked
    as itself; only an input of several is split into component graphs,
    and each of those passes ``validate_action``.  Each trace's base passes ``validate_action``, and
    the trace is replayed forward, in place, and built once, straight in
    the component's vertex and loop ids: it must equal the component,
    field by field.  Raises NotTightError on non-tight input and
    ReductionDeadEnd, carrying the graph the walk stopped at, when it
    reaches a graph that is not a union of base graphs and has no
    tightness-preserving reduction.
    """
    report = check_tight(graph)
    if not report.tight:
        raise NotTightError("decompose needs a tight graph")
    game = report.sparsity.game
    comps = symmetric_components(graph)
    # vertex i of sub is comp[i]
    subs = [_component_graph(graph, comps, comp) for comp in comps]
    games = [game.games([vmap.get(u) for u in range(graph.num_vertices)]) for _, vmap in subs]
    del report, game  # each walk goes on from, and frees, its component's copy
    traces = []
    for comp, (sub, _) in zip(comps, subs):
        steps, labels, base = _walk(sub, games.pop(0))

        # replay forward: sigma maps each replayed vertex to sub's, pos
        # inverts it, and ids maps each loop id of the current step to the
        # replayed one
        deleted = {u for step in steps for u in step.orbit_vertices}
        sigma = [u for u in range(sub.num_vertices) if u not in deleted]
        pos = {u: i for i, u in enumerate(sigma)}
        ids = {i: i for i in base.loop_ids}
        require_valid_action(base)
        growth = _Growth(base)
        moves: list[Move] = []
        for step in reversed(steps):
            move = _relabel(step.move, pos, ids)
            fresh = growth.next_loop
            if move.splits == "loop":  # its loop orbit goes
                for k in range(len(step.orbit_vertices)):
                    del ids[step.move.loop_id + k]
            growth.apply(move)
            for u in step.orbit_vertices:
                pos[u] = len(sigma)
                sigma.append(u)
            ids.update((i, fresh + k) for k, i in enumerate(step.orbit_loops))
            moves.append(move)

        # equal field by field to sub, whose action is valid (the input's
        # kept report, when sub is the input), so its own action is valid
        require_valid_action(sub)
        lam = {r: i for i, r in ids.items()}
        if growth.build(sigma, lam) != sub:
            raise RuntimeError("internal error: the trace does not replay the component")
        embedding = tuple(comp[s] for s in sigma)
        loop_embedding = tuple(sorted(lam.items()))
        traces.append(ComponentTrace("+".join(labels), base, tuple(moves), embedding, loop_embedding))
    return Decomposition(graph, tuple(traces), certified_group(graph.group))


def verify_decomposition(graph: SymmetricGraph, dec: Decomposition) -> bool:
    """Replay every trace and compare against the component it claims.

    Each ``base_graph`` must be the union of bases its ``base_label``
    names, and every move must apply.  Exact comparison: the replayed
    graph, built once in the component's vertex and loop ids through the
    stored embedding, must equal the component's graph field by field;
    the graph of one component is the input itself.
    """
    comps = symmetric_components(graph)
    if sorted(tuple(sorted(t.embedding)) for t in dec.components) != sorted(comps):
        return False
    for trace in dec.components:
        labels = base_union_labels(trace.base_graph)
        if labels is None or "+".join(labels) != trace.base_label:
            return False
        sub, vmap = _component_graph(graph, comps, trace.embedding)
        sigma = [vmap[orig] for orig in trace.embedding]
        try:
            if _grown(trace.base_graph, trace.moves, sigma, dict(trace.loop_embedding)) != sub:
                return False
        except (InvalidMoveError, RangeError, SchemaError):
            return False
    return True


# -- random generation -------------------------------------------------------


@dataclass(frozen=True)
class GeneratedGraph:
    graph: SymmetricGraph
    base_label: str
    moves: tuple[Move, ...]


def generate_random(
    group: GroupSpec | str,
    steps: int = 5,
    seed: int = 0,
    base: str | None = None,
) -> GeneratedGraph:
    """Random tight graph: a base plus ``steps`` random extension moves.

    The move kind is drawn uniformly among the applicable kinds of four:
    every kind but ``CycleEdge``, which is never drawn.  Its parameters are
    drawn uniformly among the valid choices.  Deterministic in the
    seed.  The moves are applied in place and the graph is built once, so
    the cost is linear in ``steps``; the result is checked tight before it
    is returned.  ``steps`` must be a nonnegative integer, else
    ``RangeError``.  A bare ``base`` of "lc" or "pinned" picks up the
    group's rotation order.
    """
    if isinstance(group, str):
        group = GroupSpec.from_name(group)
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise RangeError(f"steps must be an integer, not {steps!r}")
    if steps < 0:
        raise RangeError("steps must be nonnegative")
    choices = default_bases(group)
    if not choices:
        raise UnsupportedBackendError(
            f"no construction bases are defined for group {group.name}"
        )
    if base in ("lc", "pinned"):
        base = f"{base}{group.order}"
    rng = random.Random(seed)
    label = base if base is not None else rng.choice(list(choices))
    if base is not None and base not in choices:
        raise SchemaError(
            f"base {base!r} is not available for group {group.name};"
            f" choose from {', '.join(choices)}"
        )
    g = base_graph(label)
    t = group.size
    growth = _Growth(g)
    # the smallest member of each full-size edge orbit and loop orbit, in
    # order: what ``orbits`` would list, kept up to date move by move
    orbs = orbits(g)
    edge_orbits = [o[0] for o in orbs.edges if len(o) == t]
    loop_orbits = [o[0] for o in orbs.loops if len(o) == t]
    split_orbits = {"edge": edge_orbits, "loop": loop_orbits}
    moves: list[Move] = []
    for _ in range(steps):
        n = growth.n
        options = [
            kind
            for kind in _BY_PROFILE.values()
            if n >= len(kind.ends) and (kind.splits is None or split_orbits[kind.splits])
        ]
        kind = rng.choice(sorted(options, key=attrgetter("type")))
        # the ends on a drawn split orbit first; a draw among the other
        # vertices is the index ``rng.randrange(m)`` of the m of them, as
        # ``rng.choice`` of their list would draw it, mapped past them with
        # no list made
        head: tuple[int, ...] = ()
        values: list[int] = []
        if kind.splits == "edge":
            head = rng.choice(edge_orbits)
            values = list(head)
            del edge_orbits[bisect_left(edge_orbits, head)]
        elif kind.splits == "loop":
            lid = rng.choice(loop_orbits)
            head, values = (growth.loops[lid].vertex,), [lid]
            del loop_orbits[bisect_left(loop_orbits, lid)]
        if len(kind.ends) - len(head) == 2:
            values += sorted(rng.sample(range(n), 2))
        else:
            u = rng.randrange(n - len(head))
            for w in sorted(head):
                u += u >= w
            values.append(u)
        move = kind(*values)
        ends = (*head, *values[len(head) :])
        fresh = growth.next_loop
        growth.apply(move)
        # each end's new edges (images[k], n + k) are one full-size orbit
        for end in ends:
            insort(edge_orbits, min(zip(growth.images(end), range(n, n + t))))
        if growth.next_loop != fresh:  # the move added a loop orbit
            insort(loop_orbits, fresh)
        moves.append(move)
    g = growth.build()
    if not check_tight(g).tight:
        raise RuntimeError("internal error: extension moves broke tightness")
    return GeneratedGraph(g, label, tuple(moves))


__all__ = [
    "Zero2Edges",
    "ZeroEdgeLoop",
    "CycleEdge",
    "OneEdgeSplit",
    "OneLoopSplit",
    "Move",
    "Reduction",
    "ComponentTrace",
    "Decomposition",
    "GeneratedGraph",
    "apply_extension",
    "base_graph",
    "is_base_graph",
    "base_union_labels",
    "default_bases",
    "certified_group",
    "enumerate_reductions",
    "decompose",
    "verify_decomposition",
    "replay",
    "generate_random",
]
