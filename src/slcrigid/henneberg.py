"""Symmetry-preserving extension moves, base graphs, and decomposition.

Every move appends one free vertex orbit: |group| new vertices, one per
group element in canonical order, each carrying two new rows.

* ``Zero2Edges(v1, v2)``: new vertices join v1 and v2 (two edges each).
* ``ZeroEdgeLoop(v1)``: new vertices join v1 and carry one loop each.
* ``OneEdgeSplit(x0, y0, z0)``: delete the full-size orbit of edge (x0,
  y0); new vertices join x0, y0 and z0.
* ``OneLoopSplit(loop_id, y0)``: delete the full-size orbit of the loop;
  new vertices join the loop's vertex and y0 and carry one loop each.

Moves preserve symmetry-compatible tightness, so iterating them from a
tight base graph generates tight graphs.  ``decompose`` runs the moves
backwards: it strips one free orbit at a time until only a disjoint union
of recognized base graphs remains, then replays the moves forward to
certify the trace by exact relabeling.  The search is depth-first, and
candidate reductions are ranked before any is built, by two counts of the
reduced graph: its symmetric components, and its permanent orbits, those
with two loops per vertex or an edge inside the orbit.  No reduction
deletes a permanent orbit or takes a loop or edge from one, components
never merge, and every base graph is one orbit; so a graph with two
components or two permanent orbits cannot reach a single base, and the
search does not expand it.  Only when no single base is reachable does a
second search look for a disjoint union of bases.  Every candidate of a
tight graph G is G - O + A, for a free vertex orbit O and A empty, one
edge orbit or one loop orbit, and:

* G - O is sparse, because it is a subgraph of a sparse graph;
* deleting a free orbit and its rows changes no fixed count;
* so a ``Zero2Edges`` or ``ZeroEdgeLoop`` candidate is always tight, and a
  split candidate is tight exactly when A has |group| members and is
  independent over G - O.

The search therefore keeps, for each graph on its path, the two pebble
games of ``sparsity.pebble_games`` and derives a candidate's games from
its parent's: delete O, then insert A.  ``check_tight`` runs once, on the
input; ``enumerate_reductions`` stays as the try-and-check reference.  The
base graphs:

* ``p1_fixed``: one half-turn-fixed vertex with two fixed loops (order 2);
* ``p1_swap``: one fixed vertex with a swapped loop pair (order 4);
* ``pinnedN``: one free vertex orbit, two loops per vertex;
* ``lcN``: one free orbit spanned by a single n-cycle, one loop per vertex
  (any cyclic n-cycle counts, e.g. star polygons).

Reduction down to a base is guaranteed for the cyclic groups of order 2 or
odd order; for other groups the same search runs heuristically.  A dead
end raises ``ReductionDeadEnd`` carrying the first graph the search proved
dead, and the message names why: no tight reduction, two permanent
orbits, or two components.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Union

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
    induced_subgraph,
    orbits,
    relabel,
    restricted_fields,
    symmetric_components,
)


@dataclass(frozen=True)
class Zero2Edges:
    v1: int
    v2: int


@dataclass(frozen=True)
class ZeroEdgeLoop:
    v1: int


@dataclass(frozen=True)
class OneEdgeSplit:
    x0: int
    y0: int
    z0: int


@dataclass(frozen=True)
class OneLoopSplit:
    loop_id: int
    y0: int


Move = Union[Zero2Edges, ZeroEdgeLoop, OneEdgeSplit, OneLoopSplit]


def _require_vertex(graph: SymmetricGraph, v: int, what: str) -> None:
    if not 0 <= v < graph.num_vertices:
        raise InvalidMoveError(f"{what} {v} is not a vertex of the graph")


def _fresh_loop_base(graph: SymmetricGraph) -> int:
    return max(graph.loop_ids, default=-1) + 1


def _gen_elements(group: GroupSpec) -> list[tuple[bool, GroupElement]]:
    gens = []
    if group.rotation_order > 1:
        gens.append((False, GroupElement(1, False)))
    if group.has_reflection:
        gens.append((True, GroupElement(0, True)))
    return gens


def apply_extension(graph: SymmetricGraph, move: Move) -> SymmetricGraph:
    """Apply one move; the new orbit's vertices are n .. n+|group|-1.

    New vertex n+k corresponds to group element k in canonical order; new
    loop ids continue from the largest existing id.
    """
    group = graph.group
    elements = group.elements()
    t = len(elements)
    n = graph.num_vertices

    def images(v: int) -> list[int]:
        return [vp[v] for vp, _ in graph.action]

    edges = list(graph.edges)
    loops = list(graph.loops)
    new_loops: list[Loop] = []
    base_id = _fresh_loop_base(graph)

    if isinstance(move, Zero2Edges):
        _require_vertex(graph, move.v1, "v1")
        _require_vertex(graph, move.v2, "v2")
        if move.v1 == move.v2:
            raise InvalidMoveError("v1 and v2 must be distinct vertices")
        for k, (a, b) in enumerate(zip(images(move.v1), images(move.v2))):
            edges += [(n + k, a), (n + k, b)]
    elif isinstance(move, ZeroEdgeLoop):
        _require_vertex(graph, move.v1, "v1")
        for k, a in enumerate(images(move.v1)):
            edges.append((n + k, a))
            new_loops.append(Loop(base_id + k, n + k))
    elif isinstance(move, OneEdgeSplit):
        for name, v in (("x0", move.x0), ("y0", move.y0), ("z0", move.z0)):
            _require_vertex(graph, v, name)
        e0 = (min(move.x0, move.y0), max(move.x0, move.y0))
        if move.x0 == move.y0 or e0 not in graph.edges:
            raise InvalidMoveError(f"({move.x0}, {move.y0}) is not an edge")
        if move.z0 in (move.x0, move.y0):
            raise InvalidMoveError("z0 must differ from the split edge's ends")
        orbit = {
            (a, b) if a < b else (b, a)
            for a, b in zip(images(move.x0), images(move.y0))
        }
        if len(orbit) != t:
            raise InvalidMoveError(
                "the split edge's orbit must have one edge per group element"
            )
        edges = [e for e in edges if e not in orbit]
        for k, (a, b, c) in enumerate(
            zip(images(move.x0), images(move.y0), images(move.z0))
        ):
            edges += [(n + k, a), (n + k, b), (n + k, c)]
    elif isinstance(move, OneLoopSplit):
        if move.loop_id not in graph.loop_ids:
            raise InvalidMoveError(f"no loop with id {move.loop_id}")
        _require_vertex(graph, move.y0, "y0")
        x0 = graph.loop_by_id(move.loop_id).vertex
        if move.y0 == x0:
            raise InvalidMoveError("y0 must differ from the loop's vertex")
        k = graph.loop_index(move.loop_id)
        loop_orbit = {lp[k] for _, lp in graph.action}
        if len(loop_orbit) != t:
            raise InvalidMoveError(
                "the split loop's orbit must have one loop per group element"
            )
        loops = [l for l in loops if l.id not in loop_orbit]
        for k, (a, b) in enumerate(zip(images(x0), images(move.y0))):
            edges += [(n + k, a), (n + k, b)]
            new_loops.append(Loop(base_id + k, n + k))
    else:
        raise InvalidMoveError(f"unknown move {move!r}")

    surviving = {l.id for l in loops}
    kwargs = {}
    for ref, gen in _gen_elements(group):
        vp_name = "reflection_vertex_perm" if ref else "rotation_vertex_perm"
        lp_name = "reflection_loop_perm" if ref else "rotation_loop_perm"
        kwargs[vp_name] = getattr(graph, vp_name) + tuple(
            n + group.index(group.compose(gen, elements[k])) for k in range(t)
        )
        lmap = {
            l.id: img
            for l, img in zip(graph.loops, getattr(graph, lp_name))
            if l.id in surviving
        }
        for k in range(t):
            if new_loops:
                lmap[base_id + k] = base_id + group.index(group.compose(gen, elements[k]))
        kwargs[lp_name] = lmap

    return SymmetricGraph(
        group=group,
        num_vertices=n + t,
        edges=tuple(edges),
        loops=tuple(loops + new_loops),
        **kwargs,
    )


# -- base graphs -------------------------------------------------------------


def base_graph(label: str) -> SymmetricGraph:
    """Construct a base graph from its label."""
    if label == "p1_fixed":
        return SymmetricGraph(
            GroupSpec("cyclic", 2),
            1,
            (),
            (Loop(0, 0), Loop(1, 0)),
            rotation_vertex_perm=(0,),
            rotation_loop_perm={0: 0, 1: 1},
        )
    if label == "p1_swap":
        return SymmetricGraph(
            GroupSpec("cyclic", 4),
            1,
            (),
            (Loop(0, 0), Loop(1, 0)),
            rotation_vertex_perm=(0,),
            rotation_loop_perm={0: 1, 1: 0},
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
    if len(edges) != n or n < 3:
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    if any(len(a) != 2 for a in adj):
        return None
    pieces = 0
    seen: set[int] = set()
    for v0 in range(n):
        if v0 in seen:
            continue
        pieces += 1
        seen.add(v0)
        stack = [v0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return pieces


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
    free_vertex_orbit = len(orbs.vertices) == 1 and len(orbs.vertices[0]) == n
    if (
        nv == n
        and not graph.edges
        and len(graph.loops) == 2 * n
        and free_vertex_orbit
        and all(len(o) == n for o in orbs.loops)
        and all(
            sum(1 for l in graph.loops if l.vertex == v) == 2 for v in range(nv)
        )
    ):
        return f"pinned{n}"
    if (
        n >= 3
        and nv == n
        and len(graph.loops) == n
        and free_vertex_orbit
        and len(orbs.loops) == 1
        and all(
            sum(1 for l in graph.loops if l.vertex == v) == 1 for v in range(nv)
        )
    ):
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
    """Delete v's orbit, and the orbit of ``graph.loops[loop]`` when given,
    then state the ``kind`` move that restores it from ``ends``, v's
    neighbours in ``graph`` labels.

    The reduced graph is built once, with a split's new edge or loop orbit
    added to the fields of ``restricted_fields``: the kept vertices are
    renumbered in order and keep their loop ids; a new loop orbit's ids
    continue from the largest kept id, element k's loop first, as in
    ``apply_extension``.
    """
    group = graph.group
    action = graph.action
    orbit_vertices = tuple(vp[v] for vp, _ in action)
    orbit_loops = () if loop is None else tuple(lp[loop] for _, lp in action)
    deleted = set(orbit_vertices)
    fields, vmap = restricted_fields(
        graph, (u for u in range(graph.num_vertices) if u not in deleted)
    )
    a = [vmap[u] for u in ends]
    move: Move
    if kind is Zero2Edges:
        move = Zero2Edges(*sorted(a))
    elif kind is ZeroEdgeLoop:
        move = ZeroEdgeLoop(a[0])
    elif kind is OneEdgeSplit:
        images = ((vmap[vp[ends[0]]], vmap[vp[ends[1]]]) for vp, _ in action)
        fields["edges"] += tuple({(x, y) if x < y else (y, x) for x, y in images})
        move = OneEdgeSplit(*a)
    else:
        new_id = max((l.id for l in fields["loops"]), default=-1) + 1
        fields["loops"] += tuple(
            Loop(new_id + k, vmap[vp[ends[0]]]) for k, (vp, _) in enumerate(action)
        )
        elements = group.elements()
        for ref, gen in _gen_elements(group):
            lmap = fields["reflection_loop_perm" if ref else "rotation_loop_perm"]
            for k, el in enumerate(elements):
                lmap[new_id + k] = new_id + group.index(group.compose(gen, el))
        move = OneLoopSplit(new_id, a[1])
    red = SymmetricGraph(group, **fields)
    vertex_map = tuple(vmap.get(u) for u in range(graph.num_vertices))
    return Reduction(move, red, orbit_vertices, orbit_loops, vertex_map)


def _cut_pieces(
    adj: dict[int, set[int]],
) -> tuple[int, Callable[[int], int], Callable[[int, int], int]]:
    """Connectivity of a simple graph after deleting any one node.

    One iterative low-point DFS (Hopcroft-Tarjan) over the adjacency sets.
    Returns the number of connected components, ``pieces(r)``, the number
    of components that r's own component falls into without r, and
    ``piece(r, w)``, a label of the piece a neighbour w of r lies in: the
    DFS child of r whose subtree holds w and is cut off by r, or -1 for
    the piece that keeps r's parent.
    """
    # low[x] also counts x's tree edge to its parent; r still cuts off its
    # child c exactly when low[c] >= disc[r]
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    fin: dict[int, int] = {}
    children: dict[int, list[int]] = {}
    roots: set[int] = set()
    for root in adj:
        if root in disc:
            continue
        roots.add(root)
        disc[root] = low[root] = len(disc)
        children[root] = []
        stack = [(root, iter(adj[root]))]
        while stack:
            x, it = stack[-1]
            for y in it:
                if y not in disc:
                    children[x].append(y)
                    children[y] = []
                    disc[y] = low[y] = len(disc)
                    stack.append((y, iter(adj[y])))
                    break
                if disc[y] < low[x]:
                    low[x] = disc[y]
            else:
                stack.pop()
                fin[x] = len(disc)
                if stack and low[x] < low[stack[-1][0]]:
                    low[stack[-1][0]] = low[x]

    def pieces(r: int) -> int:
        cut_off = sum(1 for c in children[r] if low[c] >= disc[r])
        return cut_off + (r not in roots)

    def piece(r: int, w: int) -> int:
        if not disc[r] < disc[w] < fin[r]:
            return -1  # not below r: on the parent's side
        kids = children[r]
        c = kids[bisect_right(kids, disc[w], key=disc.__getitem__) - 1]
        return c if low[c] >= disc[r] else -1

    return len(roots), pieces, piece


def _orbit_reps(graph: SymmetricGraph) -> list[int]:
    """Each vertex's orbit representative, the orbit's smallest vertex."""
    return [min(vp[v] for vp, _ in graph.action) for v in range(graph.num_vertices)]


def _permanent_orbits(graph: SymmetricGraph, rep: list[int]) -> set[int]:
    """Representatives (``rep``, from ``_orbit_reps``) of the permanent
    orbits: those with two loops per vertex, or with an edge inside the
    orbit.

    No reduction deletes such an orbit (none is offered), and none takes a
    loop or an edge away from it, so it stays to the end.  Every base graph
    is one orbit, so a graph with two of them cannot reach a single base.
    """
    looped = Counter(l.vertex for l in graph.loops)
    return {rep[v] for v, k in looped.items() if k >= 2} | {
        rep[a] for a, b in graph.edges if rep[a] == rep[b]
    }


Candidate = tuple[int, int | None, type, tuple[int, ...]]
# (symmetric components of the reduced graph, whether it makes an orbit
# permanent); see ``_reduction_candidates``
Key = tuple[int, bool]
# (symmetric components, permanent orbits) of a graph
Counts = tuple[int, int]


def _reduction_candidates(
    graph: SymmetricGraph,
) -> Iterator[tuple[Key, Candidate]]:
    """Structurally valid orbit deletions, deterministic order, unbuilt.

    Only free orbits whose neighborhood lies outside the orbit are offered;
    those are exactly the orbits an extension can have created.  Each comes
    as ``((components, permanent), (v, loop, kind, ends))``; the second
    part holds the arguments of ``_reduce(graph, v, loop, kind, ends)``,
    which builds the unchecked ``Reduction``.  Both parts of the key are
    found without building the reduced graph:

    * ``components`` is the number of symmetric components of the reduced
      graph.  Every candidate of an orbit O starts from G - O and adds an
      edge orbit x1-x2 (a (3,0) split), a loop orbit (a (2,1) split) or
      nothing.  Components are action-closed, so they are the components
      of the orbit-quotient graph (one node per vertex orbit), and one DFS
      over it counts them in G - O for every O (``_cut_pieces``): the edge
      orbit joins two of them exactly when x1 and x2 lie apart in G - O,
      and a loop joins none.
    * ``permanent`` says whether the reduced graph has one more permanent
      orbit than G (see ``_permanent_orbits``): a (2,1) split whose loops
      give a vertex its second loop, or a (3,0) split whose edge orbit lies
      inside one orbit, where that orbit was not permanent already.
    """
    t = graph.group.size
    n = graph.num_vertices
    edge_set = set(graph.edges)

    nbrs: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in graph.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    loops_at: list[list[int]] = [[] for _ in range(n)]
    for k, l in enumerate(graph.loops):
        loops_at[l.vertex].append(k)
    rep = _orbit_reps(graph)
    size = Counter(rep)
    permanent = _permanent_orbits(graph, rep)
    quotient: dict[int, set[int]] = {r: set() for r in rep}
    for a, b in graph.edges:
        if rep[a] != rep[b]:
            quotient[rep[a]].add(rep[b])
            quotient[rep[b]].add(rep[a])
    total, pieces, piece = _cut_pieces(quotient)

    for v in range(n):
        if rep[v] != v:
            continue
        orb = {vp[v] for vp, _ in graph.action}
        if len(orb) != t:
            continue
        out = sorted(nbrs[v])
        if any(u in orb for u in out):
            continue
        profile = (len(out), len(loops_at[v]))
        if profile not in ((2, 0), (1, 1), (3, 0), (2, 1)):
            continue
        comps = total - 1 + pieces(v)

        if profile == (2, 0):
            yield (comps, False), (v, None, Zero2Edges, tuple(out))
        elif profile == (1, 1):
            yield (comps, False), (v, loops_at[v][0], ZeroEdgeLoop, tuple(out))
        elif profile == (3, 0):
            for i in range(3):
                for j in range(i + 1, 3):
                    x1, x2 = out[i], out[j]
                    if ((x1, x2) if x1 < x2 else (x2, x1)) in edge_set:
                        continue
                    z = out[3 - i - j]
                    joined = piece(v, rep[x1]) != piece(v, rep[x2])
                    inner = rep[x1] == rep[x2] and rep[x1] not in permanent
                    yield (comps - joined, inner), (v, None, OneEdgeSplit, (x1, x2, z))
        else:
            loop = loops_at[v][0]
            for x, y in ((out[0], out[1]), (out[1], out[0])):
                # the t new loops spread evenly over x's orbit
                looped = len(loops_at[x]) + t // size[rep[x]] >= 2
                new = looped and rep[x] not in permanent
                yield (comps, new), (v, loop, OneLoopSplit, (x, y))


def enumerate_reductions(
    graph: SymmetricGraph, method: str = "pebble"
) -> tuple[Reduction, ...]:
    """All reductions whose result is still tight (try-and-check).

    Every candidate is built and checked by ``check_tight`` from scratch;
    this is the reference that ``decompose``'s incremental search is tested
    against.
    """
    if not check_tight(graph, method).tight:
        raise NotTightError("reductions are only defined on tight graphs")
    reds = (_reduce(graph, *cand) for _, cand in _reduction_candidates(graph))
    return tuple(r for r in reds if check_tight(r.graph, method).tight)


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


def base_union_labels(graph: SymmetricGraph) -> tuple[str, ...] | None:
    """Labels when every symmetric component is a base graph, else None.

    A base graph has 1 or ``group.order`` vertices, so a component larger
    than the group rules the graph out before any subgraph is built.
    """
    comps = symmetric_components(graph)
    if any(len(comp) > graph.group.size for comp in comps):
        return None
    labels = []
    for comp in comps:
        sub, _ = induced_subgraph(graph, comp)
        label = is_base_graph(sub)
        if label is None:
            return None
        labels.append(label)
    return tuple(labels)


@dataclass(frozen=True)
class Decomposition:
    graph: SymmetricGraph
    components: tuple[ComponentTrace, ...]
    certified: bool

    @property
    def total_moves(self) -> int:
        return sum(len(c.moves) for c in self.components)


def _translate_move(move: Move, inv_v: dict[int, int], inv_l: dict[int, int]) -> Move:
    if isinstance(move, Zero2Edges):
        a, b = sorted((inv_v[move.v1], inv_v[move.v2]))
        return Zero2Edges(a, b)
    if isinstance(move, ZeroEdgeLoop):
        return ZeroEdgeLoop(inv_v[move.v1])
    if isinstance(move, OneEdgeSplit):
        return OneEdgeSplit(inv_v[move.x0], inv_v[move.y0], inv_v[move.z0])
    return OneLoopSplit(inv_l[move.loop_id], inv_v[move.y0])


def replay(trace: ComponentTrace) -> SymmetricGraph:
    """Apply the trace's moves to its base graph."""
    g = trace.base_graph
    for move in trace.moves:
        g = apply_extension(g, move)
    return g


Games = tuple[_PebbleGame, _PebbleGame]


def _child_games(
    graph: SymmetricGraph, games: Games, cand: Candidate
) -> Games | None:
    """The pebble games of a candidate's graph G - O + A, or None when that
    graph is not tight (see ``_tight_reductions`` for why this decides it).

    ``games`` are the ``pebble_games`` of ``graph``.  The games of G - O
    come from restricting them.  An edge orbit A is inserted with 4
    pebbles per edge in the (2,3) game and 1 in the (2,0) game, a loop
    orbit with 1 per loop in the (2,0) game.  An edge orbit of fewer than
    |group| members is refused unplayed: some element fixes one of its
    edges, and it has fewer rows than O took.
    """
    v, _, kind, ends = cand
    orbit = {vp[v] for vp, _ in graph.action}
    vmap: list[int | None] = [None] * graph.num_vertices
    kept = 0
    for u in range(graph.num_vertices):
        if u not in orbit:
            vmap[u] = kept
            kept += 1
    edge_game, row_game = (game.restrict(vmap) for game in games)
    if kind is OneEdgeSplit:
        x1, x2 = ends[0], ends[1]
        added = {tuple(sorted((vmap[vp[x1]], vmap[vp[x2]]))) for vp, _ in graph.action}
        if len(added) != graph.group.size or not all(
            edge_game.insert_edge(a, b, 4) and row_game.insert_edge(a, b, 1)
            for a, b in sorted(added)
        ):
            return None
    elif kind is OneLoopSplit:
        if not all(row_game.insert_loop(vmap[vp[ends[0]]]) for vp, _ in graph.action):
            return None
    return edge_game, row_game


def _tight_reductions(
    graph: SymmetricGraph,
    games: Games,
    permanent: int,
    wanted: Callable[[Counts], bool] | None = None,
) -> Iterator[tuple[Reduction, Games, Counts]]:
    """Tight reductions of ``graph`` in search order, each with the pebble
    games of its graph and its ``Counts``.

    ``graph`` is tight, ``games`` are its ``pebble_games`` and
    ``permanent`` is its number of permanent orbits; a reduction's counts
    are its key's components and ``permanent`` plus its key's flag.  Every
    candidate is G - O + A (see ``_reduction_candidates``), and:

    * G - O is sparse, because it is a subgraph of the sparse graph G;
    * deleting the free orbit O, with its rows, changes no fixed count;
    * so a ``Zero2Edges`` or ``ZeroEdgeLoop`` candidate (A empty) is always
      tight, and a split is tight exactly when its orbit A has |group|
      members and A is independent over G - O.

    So each candidate is decided from the parent's games
    (``_child_games``), not by ``check_tight``, and built only when it is
    tight; every built graph still passes ``validate_action``.  The
    candidates are stable-sorted by their key, which needs no reduced
    graph: fewest symmetric components first, and among as many components
    those that make no new permanent orbit (``_permanent_orbits``), since a
    second permanent orbit rules out a single base.  Each candidate is
    decided only when the caller asks for the next one, and only if
    ``wanted`` (when given) holds for its counts then; the others are
    passed over undecided.  Filtering commutes with a stable sort, so this
    is the order of sorting the tight reductions themselves.
    """
    for (comps, new), cand in sorted(_reduction_candidates(graph), key=itemgetter(0)):
        counts = (comps, permanent + new)
        if wanted is not None and not wanted(counts):
            continue
        child = _child_games(graph, games, cand)
        if child is not None:
            red = _reduce(graph, *cand)
            require_valid_action(red.graph)
            yield red, child, counts


Path = tuple[tuple[Reduction, ...], tuple[str, ...]]


def _walk(
    start: SymmetricGraph, union: bool
) -> tuple[Path | None, tuple[SymmetricGraph, int, str] | None]:
    """One depth-first search of ``_search_reductions``.

    Without ``union`` it looks for a single base only.  A graph with two or
    more symmetric components, or with two or more permanent orbits, is cut
    there; both counts come with each reduction (``_tight_reductions``), so
    only ``start``'s are counted from scratch.  Once a witness is in hand,
    a reduction that would be cut is not even decided.  Returns the path
    to the first single base, or None, and the first graph the search
    proved dead: one with no tight reduction, or one cut by either rule,
    with its depth and the rule.

    With ``union`` it looks for the best disjoint union of bases (fewest
    pieces, then longest path), decides every candidate and cuts nothing:
    a component can split, so two permanent orbits in one component may
    still end in two base pieces.  The carried component count only spares
    ``base_union_labels`` there.

    The walk is iterative: ``frames`` holds, for each graph on the current
    path that is being expanded, the lazy iterator of its tight reductions,
    so a graph's later candidates are decided and built only after the
    search has come back from its earlier ones.  Each iterator keeps its
    graph's pebble games, so games are held only for the graphs on the
    path.  The depth is the number of moves and is not bounded by Python's
    recursion limit.  Graphs already expanded are not expanded again.
    """
    t = start.group.size
    best: Path | None = None
    dead: tuple[SymmetricGraph, int, str] | None = None
    seen: set[SymmetricGraph] = set()
    path: list[Reduction] = []  # from start to g
    # frames[i] expands the graph after path[:i]
    frames: list[Iterator[tuple[Reduction, Games, Counts]]] = []

    def wanted(counts: Counts) -> bool:
        return union or (counts[0] < 2 and counts[1] < 2) or dead is None

    g = start
    games = pebble_games(start.num_vertices, start.edges, start.loop_vertices)
    comps = len(symmetric_components(start))
    perm = len(_permanent_orbits(start, _orbit_reps(start)))
    while True:
        nxt: tuple[Reduction, Games, Counts] | None = None
        # a union of bases has at most |group| vertices per piece
        labels = base_union_labels(g) if g.num_vertices <= comps * t else None
        cut = None
        if not union and comps >= 2:
            cut = f"has {comps} symmetric components, which no reduction joins"
        elif not union and perm >= 2:
            cut = (
                f"has {perm} permanent orbits (two loops per vertex, or an edge"
                " inside the orbit), which no reduction removes"
            )
        if labels is not None:
            if len(labels) == 1:
                return (tuple(path), labels), dead
            if union and (
                best is None or (len(labels), -len(path)) < (len(best[1]), -len(best[0]))
            ):
                best = (tuple(path), labels)
        elif cut is not None:
            if dead is None:
                dead = (g, len(path), cut)
        elif g not in seen:
            seen.add(g)
            reds = _tight_reductions(g, games, perm, wanted)
            nxt = next(reds, None)
            if nxt is None:
                if dead is None:
                    dead = (g, len(path), "admits no tightness-preserving reduction")
            else:
                frames.append(reds)
        while nxt is None and frames:
            nxt = next(frames[-1], None)
            if nxt is None:
                frames.pop()
        if nxt is None:
            return best, dead
        del path[len(frames) - 1 :]
        red, games, (comps, perm) = nxt
        path.append(red)
        g = red.graph


def _search_reductions(start: SymmetricGraph) -> Path:
    """Reduction path from ``start``, a tight graph, down to a union of
    base graphs.

    Depth-first with backtracking, in the order of ``_tight_reductions``;
    the first terminal that is a single base graph wins.  A base graph is
    one vertex orbit, components never merge, and a permanent orbit (two
    loops per vertex, or an edge inside the orbit) is never deleted.  So a
    graph with two or more symmetric components, or with two or more
    permanent orbits, cannot reach a single base, and that search does not
    expand it (see ``_walk``).  A graph with more vertices than
    ``components * |group|`` is no union of bases, so ``base_union_labels``
    is not asked.

    Only when no single base is reachable, a second search looks for a
    disjoint union of bases, kept as a fallback (fewest pieces, then
    longest path): a reduction can disconnect the graph.  When it finds
    none either, raises ``ReductionDeadEnd`` carrying the first search's
    witness, the first graph it proved dead, and the message names the
    rule.
    """
    found, dead = _walk(start, union=False)
    if found is None:
        found, _ = _walk(start, union=True)
    if found is not None:
        return found
    witness, depth, reason = dead
    raise ReductionDeadEnd(
        f"tight graph on {witness.num_vertices} vertices (group"
        f" {start.group.name}), {depth} reductions below a component, is not"
        f" a union of base graphs and {reason}",
        witness,
    )


def decompose(graph: SymmetricGraph, method: str = "pebble") -> Decomposition:
    """Reduce every symmetric component to a base graph and certify replay.

    The input is checked once, by ``check_tight`` with the given sparsity
    ``method``; the search then decides every reduction from the pebble
    games of the graph it reduces (see ``_tight_reductions``).  Backtracking
    search per component, preferring a single-base terminal; see
    _search_reductions.  The returned traces are verified internally:
    replaying each one and relabeling through its embedding must reproduce
    the component exactly.  Raises NotTightError on non-tight input and
    ReductionDeadEnd, carrying a graph the search proved dead, when some
    component cannot reach a union of base graphs by tightness-preserving
    reductions.
    """
    if not check_tight(graph, method).tight:
        raise NotTightError("decompose needs a tight graph")
    group = graph.group
    t = group.size
    traces = []
    for comp in symmetric_components(graph):
        sub, vmap = induced_subgraph(graph, comp)
        inv_vmap = {new: old for old, new in vmap.items()}

        steps, labels = _search_reductions(sub)
        label = "+".join(labels)

        # replay forward, tracking where each replayed vertex and loop lands
        base = steps[-1].graph if steps else sub
        x = base
        sigma = list(range(base.num_vertices))  # replay vertex -> current step's
        lam = {lid: lid for lid in base.loop_ids}  # replay loop id -> step's
        moves: list[Move] = []
        for red in reversed(steps):
            inv_v = {s: i for i, s in enumerate(sigma)}
            inv_l = {v: k for k, v in lam.items()}
            translated = _translate_move(red.move, inv_v, inv_l)
            fresh = _fresh_loop_base(x)
            deleted_ids: set[int] = set()
            if isinstance(translated, OneLoopSplit):
                k = x.loop_index(translated.loop_id)
                deleted_ids = {lp[k] for _, lp in x.action}
            x = apply_extension(x, translated)
            inv_red = {
                new: old
                for old, new in enumerate(red.vertex_map)
                if new is not None
            }
            sigma = [inv_red[s] for s in sigma] + list(red.orbit_vertices)
            lam = {k: v for k, v in lam.items() if k not in deleted_ids}
            for k in range(t):
                if red.orbit_loops:
                    lam[fresh + k] = red.orbit_loops[k]
            moves.append(translated)

        if relabel(x, sigma, lam) != sub:
            raise RuntimeError(
                "internal error: replaying the trace does not reproduce the"
                " component"
            )
        traces.append(
            ComponentTrace(
                label,
                base,
                tuple(moves),
                tuple(inv_vmap[s] for s in sigma),
                tuple(sorted(lam.items())),
            )
        )
    return Decomposition(graph, tuple(traces), certified_group(group))


def verify_decomposition(graph: SymmetricGraph, dec: Decomposition) -> bool:
    """Replay every trace and compare against the component it claims.

    Exact comparison: the replayed graph, relabeled through the stored
    embedding, must equal the induced component graph field by field.
    """
    comps = symmetric_components(graph)
    if len(comps) != len(dec.components):
        return False
    claimed: list[tuple[int, ...]] = []
    for trace in dec.components:
        claimed.append(tuple(sorted(trace.embedding)))
    if sorted(claimed) != sorted(comps):
        return False
    for trace in dec.components:
        comp = tuple(sorted(trace.embedding))
        sub, vmap = induced_subgraph(graph, comp)
        x = replay(trace)
        if x.num_vertices != len(trace.embedding):
            return False
        sigma = [vmap[orig] for orig in trace.embedding]
        lam = dict(trace.loop_embedding)
        try:
            if relabel(x, sigma, lam) != sub:
                return False
        except (RangeError, SchemaError):
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

    The move kind is drawn uniformly among the applicable kinds and its
    parameters uniformly among the valid choices.  Deterministic in the
    seed.  The result is checked tight before it is returned.  A bare
    ``base`` of "lc" or "pinned" picks up the group's rotation order.
    """
    if isinstance(group, str):
        group = GroupSpec.from_name(group)
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
    moves: list[Move] = []
    for _ in range(steps):
        orbs = orbits(g)
        options = ["zero_edge_loop"]
        if g.num_vertices >= 2:
            options.append("zero_two_edges")
        full_edge_orbits = [o for o in orbs.edges if len(o) == t]
        if full_edge_orbits and g.num_vertices >= 3:
            options.append("one_edge_split")
        full_loop_orbits = [o for o in orbs.loops if len(o) == t]
        if full_loop_orbits and g.num_vertices >= 2:
            options.append("one_loop_split")
        kind = rng.choice(sorted(options))
        move: Move
        if kind == "zero_two_edges":
            v1, v2 = sorted(rng.sample(range(g.num_vertices), 2))
            move = Zero2Edges(v1, v2)
        elif kind == "zero_edge_loop":
            move = ZeroEdgeLoop(rng.randrange(g.num_vertices))
        elif kind == "one_edge_split":
            x0, y0 = rng.choice(full_edge_orbits)[0]
            z0 = rng.choice([u for u in range(g.num_vertices) if u not in (x0, y0)])
            move = OneEdgeSplit(x0, y0, z0)
        else:
            lid = rng.choice(full_loop_orbits)[0]
            x0 = g.loop_by_id(lid).vertex
            y0 = rng.choice([u for u in range(g.num_vertices) if u != x0])
            move = OneLoopSplit(lid, y0)
        g = apply_extension(g, move)
        moves.append(move)
    if not check_tight(g).tight:
        raise RuntimeError("internal error: extension moves broke tightness")
    return GeneratedGraph(g, label, tuple(moves))


__all__ = [
    "Zero2Edges",
    "ZeroEdgeLoop",
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
