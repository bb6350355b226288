"""Symmetric looped graphs and plane point-group actions.

A looped simple graph has simple edges between distinct vertices plus loops,
each loop attached to a single vertex and carrying a stable integer id.  A
plane point group (cyclic, a single mirror, or dihedral) acts on the graph
through one vertex permutation and one loop permutation per generator, and on
the plane through rotation/reflection matrices.  This module holds that data
model and the purely combinatorial queries on it: action validation, orbits,
fixed-element counts, and symmetric connectivity.

Loop normals are only defined up to sign (q and -q cut the same line), so a
loop fixed by a mirror stores a ``sigma_label``: ``"+"`` when the mirror
preserves the normal (constraint line perpendicular to the mirror), ``"-"``
when it inverts the normal (line along the mirror).  For dihedral groups the
label refers to the first reflection element, in canonical element order,
that fixes the loop; a second mirror fixing the same loop differs by the
half-turn and flips the sign.

All types are immutable; functions return new values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ActionError, RangeError, SchemaError

GROUP_KINDS = ("cyclic", "reflection", "dihedral")

_QUARTER_COS_SIN = ((1, 0), (0, 1), (-1, 0), (0, -1))
_EIGHTH_MIRROR_DIR = ((1, 0), (1, 1), (0, 1), (-1, 1))


@dataclass(frozen=True, order=True)
class GroupElement:
    """One element c^rot * s^ref of a cyclic/reflection/dihedral group."""

    rot: int
    ref: bool


@dataclass(frozen=True)
class GroupSpec:
    """A plane point group: cyclic Cn, a single mirror, or dihedral of order 2n."""

    kind: str
    order: int

    def __post_init__(self) -> None:
        if self.kind not in GROUP_KINDS:
            raise SchemaError(f"unknown group kind {self.kind!r}")
        if not isinstance(self.order, int) or self.order < 1:
            raise SchemaError("group order must be a positive integer")
        if self.kind == "reflection" and self.order != 2:
            raise SchemaError("a reflection group has order 2")

    @classmethod
    def from_name(cls, name: str) -> "GroupSpec":
        """Parse names like c1, c2, c5, cs, d2, d4."""
        m = re.fullmatch(r"(c|d)(\d+)|cs", name.strip().lower())
        if m is None:
            raise SchemaError(f"unknown group name {name!r}")
        if m.group(0) == "cs":
            return cls("reflection", 2)
        kind = "cyclic" if m.group(1) == "c" else "dihedral"
        return cls(kind, int(m.group(2)))

    @property
    def name(self) -> str:
        if self.kind == "cyclic":
            return f"c{self.order}"
        if self.kind == "reflection":
            return "cs"
        return f"d{self.order}"

    @property
    def rotation_order(self) -> int:
        return 1 if self.kind == "reflection" else self.order

    @property
    def has_reflection(self) -> bool:
        return self.kind != "cyclic"

    @property
    def size(self) -> int:
        return self.rotation_order * (2 if self.has_reflection else 1)

    @property
    def exact_supported(self) -> bool:
        """True when every symmetry matrix has integer entries."""
        return self.rotation_order in (1, 2, 4)

    def elements(self) -> tuple[GroupElement, ...]:
        n = self.rotation_order
        out = [GroupElement(r, False) for r in range(n)]
        if self.has_reflection:
            out += [GroupElement(r, True) for r in range(n)]
        return tuple(out)

    def identity(self) -> GroupElement:
        return GroupElement(0, False)

    def compose(self, a: GroupElement, b: GroupElement) -> GroupElement:
        # s * c^r = c^-r * s, so c^r1 s^m1 * c^r2 s^m2 = c^(r1 +- r2) s^(m1^m2)
        n = self.rotation_order
        rot = (a.rot - b.rot) % n if a.ref else (a.rot + b.rot) % n
        return GroupElement(rot, a.ref != b.ref)

    def inverse(self, a: GroupElement) -> GroupElement:
        if a.ref:
            return a
        return GroupElement((-a.rot) % self.rotation_order, False)

    def element_order(self, a: GroupElement) -> int:
        if a.ref:
            return 2
        n = self.rotation_order
        return n // math.gcd(n, a.rot)

    def element_label(self, a: GroupElement) -> str:
        n = self.rotation_order
        if not a.ref:
            if a.rot == 0:
                return "id"
            return f"c{n}" if a.rot == 1 else f"c{n}^{a.rot}"
        if a.rot == 0:
            return "s"
        return f"c{n}^{a.rot}*s"

    def half_turn(self) -> GroupElement | None:
        """The order-2 rotation, when the group has one."""
        n = self.rotation_order
        return GroupElement(n // 2, False) if n % 2 == 0 and n > 1 else None

    def tau(self, a: GroupElement) -> np.ndarray:
        """2x2 float symmetry matrix for the element."""
        ang = 2.0 * math.pi * a.rot / self.rotation_order
        c, s = math.cos(ang), math.sin(ang)
        if a.ref:
            return np.array([[c, s], [s, -c]])
        return np.array([[c, -s], [s, c]])

    def tau_exact(self, a: GroupElement) -> tuple[tuple[int, int], tuple[int, int]] | None:
        """Integer symmetry matrix, or None for groups with irrational entries."""
        if not self.exact_supported:
            return None
        c, s = _QUARTER_COS_SIN[(a.rot * 4 // self.rotation_order) % 4]
        if a.ref:
            return ((c, s), (s, -c))
        return ((c, -s), (s, c))

    def mirror_direction(self, a: GroupElement) -> tuple[float, float]:
        """Unit direction of the mirror line of a reflection element."""
        if not a.ref:
            raise ActionError("mirror_direction needs a reflection element")
        th = math.pi * a.rot / self.rotation_order
        return (math.cos(th), math.sin(th))

    def mirror_direction_exact(self, a: GroupElement) -> tuple[int, int] | None:
        """Integer vector along the mirror line, when one exists."""
        if not a.ref:
            raise ActionError("mirror_direction_exact needs a reflection element")
        if not self.exact_supported:
            return None
        return _EIGHTH_MIRROR_DIR[(a.rot * 4 // self.rotation_order) % 4]


@dataclass(frozen=True)
class Loop:
    """A loop row: one vertex plus an optional mirror-sign label."""

    id: int
    vertex: int
    sigma_label: str | None = None


def _as_loop(entry) -> Loop:
    if isinstance(entry, Loop):
        return entry
    return Loop(*entry)


def _check_perm(perm: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    p = tuple(perm)
    if len(p) != n or sorted(p) != list(range(n)):
        raise RangeError(f"{what} is not a permutation of 0..{n - 1}")
    return p


@dataclass(frozen=True)
class SymmetricGraph:
    """A looped simple graph with a point-group action.

    Loop permutations are stored aligned with the sorted ``loops`` tuple:
    entry k is the image id of ``loops[k]``.  Constructors may pass them as
    ``{id: id}`` mappings instead.  Generators that a kind does not have
    (e.g. rotation for a pure mirror group) must be None; for the trivial
    group both are None.
    """

    group: GroupSpec
    num_vertices: int
    edges: tuple[tuple[int, int], ...] = ()
    loops: tuple[Loop, ...] = ()
    rotation_vertex_perm: tuple[int, ...] | None = None
    rotation_loop_perm: tuple[int, ...] | None = None
    reflection_vertex_perm: tuple[int, ...] | None = None
    reflection_loop_perm: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        n = self.num_vertices
        if not isinstance(n, int) or n < 0:
            raise RangeError("num_vertices must be a nonnegative integer")

        loops = tuple(sorted((_as_loop(l) for l in self.loops), key=lambda l: l.id))
        ids = [l.id for l in loops]
        if len(set(ids)) != len(ids):
            raise RangeError("duplicate loop id")
        for l in loops:
            if not 0 <= l.vertex < n:
                raise RangeError(f"loop {l.id} vertex {l.vertex} out of range")
            if l.sigma_label not in (None, "+", "-"):
                raise RangeError(f"loop {l.id} sigma_label must be '+' or '-'")
        object.__setattr__(self, "loops", loops)

        seen = set()
        norm = []
        for e in self.edges:
            u, v = e
            if u == v:
                raise RangeError("self-edge must be a loop entry")
            if not (0 <= u < n and 0 <= v < n):
                raise RangeError(f"edge {e} out of range")
            uv = (u, v) if u < v else (v, u)
            if uv in seen:
                raise RangeError(f"duplicate edge {uv}")
            seen.add(uv)
            norm.append(uv)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

        has_rot = self.group.rotation_order > 1
        has_ref = self.group.has_reflection
        for present, needed, gen in (
            (self.rotation_vertex_perm is not None, has_rot, "rotation"),
            (self.reflection_vertex_perm is not None, has_ref, "reflection"),
        ):
            if present and not needed:
                raise SchemaError(f"group {self.group.name} takes no {gen} generator")
            if needed and not present:
                raise SchemaError(f"group {self.group.name} requires a {gen} generator")

        for vp_name, lp_name in (
            ("rotation_vertex_perm", "rotation_loop_perm"),
            ("reflection_vertex_perm", "reflection_loop_perm"),
        ):
            vp = getattr(self, vp_name)
            lp = getattr(self, lp_name)
            if vp is None:
                if lp is not None:
                    raise SchemaError(f"{lp_name} given without {vp_name}")
                continue
            object.__setattr__(self, vp_name, _check_perm(vp, n, vp_name))
            if lp is None:
                if loops:
                    raise SchemaError(f"{lp_name} required (graph has loops)")
                object.__setattr__(self, lp_name, ())
                continue
            if isinstance(lp, Mapping):
                try:
                    aligned = tuple(lp[l.id] for l in loops)
                except KeyError as missing:
                    raise RangeError(f"{lp_name} missing loop id {missing}") from None
                if len(lp) != len(loops):
                    raise RangeError(f"{lp_name} has extra loop ids")
            else:
                aligned = tuple(lp)
            if sorted(aligned) != ids:
                raise RangeError(f"{lp_name} is not a permutation of the loop ids")
            object.__setattr__(self, lp_name, aligned)

    # -- basic accessors ---------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.edges) + len(self.loops)

    @property
    def loop_ids(self) -> tuple[int, ...]:
        return tuple(l.id for l in self.loops)

    @property
    def loop_vertices(self) -> tuple[int, ...]:
        return tuple(l.vertex for l in self.loops)

    def loop_by_id(self, loop_id: int) -> Loop:
        for l in self.loops:
            if l.id == loop_id:
                return l
        raise RangeError(f"no loop with id {loop_id}")

    def generator_perms(self, ref: bool) -> tuple[tuple[int, ...], dict[int, int]]:
        """(vertex perm, loop perm as id map) for one generator; identity if absent."""
        vp = self.reflection_vertex_perm if ref else self.rotation_vertex_perm
        lp = self.reflection_loop_perm if ref else self.rotation_loop_perm
        if vp is None:
            vp = tuple(range(self.num_vertices))
            lmap = {l.id: l.id for l in self.loops}
        else:
            lmap = {l.id: img for l, img in zip(self.loops, lp or ())}
        return vp, lmap


@dataclass(frozen=True)
class ElementAction:
    """The permutations one group element induces on the graph."""

    element: GroupElement
    vertex: tuple[int, ...]
    loop: dict[int, int] = field(compare=False)
    edge: dict[tuple[int, int], tuple[int, int]] = field(compare=False)


def _compose_vperm(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(f[x] for x in g)


def _compose_lperm(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    return {k: f[v] for k, v in g.items()}


def element_tables(graph: SymmetricGraph):
    """Vertex/loop permutations for every group element, in canonical order.

    Returns ``{element: (vertex_perm, loop_id_map)}``.  Requires a valid
    action; with invalid data the composites are still well defined but may
    not respect the graph.
    """
    group = graph.group
    n_rot = group.rotation_order
    rot_v, rot_l = graph.generator_perms(ref=False)
    tables: dict[GroupElement, tuple[tuple[int, ...], dict[int, int]]] = {}
    vp = tuple(range(graph.num_vertices))
    lp = {l.id: l.id for l in graph.loops}
    for r in range(n_rot):
        tables[GroupElement(r, False)] = (vp, lp)
        if r + 1 < n_rot:
            vp, lp = _compose_vperm(rot_v, vp), _compose_lperm(rot_l, lp)
    if group.has_reflection:
        ref_v, ref_l = graph.generator_perms(ref=True)
        for r in range(n_rot):
            vp, lp = tables[GroupElement(r, False)]
            tables[GroupElement(r, True)] = (
                _compose_vperm(vp, ref_v),
                _compose_lperm(lp, ref_l),
            )
    return tables


def element_action(graph: SymmetricGraph, element: GroupElement) -> ElementAction:
    """Vertex, loop, and induced edge permutation of one element."""
    group = graph.group
    if not (0 <= element.rot < group.rotation_order) or (
        element.ref and not group.has_reflection
    ):
        raise ActionError(f"element {element} is not in group {group.name}")
    vp, lp = element_tables(graph)[element]
    edge_map: dict[tuple[int, int], tuple[int, int]] = {}
    edge_set = set(graph.edges)
    for (u, v) in graph.edges:
        a, b = vp[u], vp[v]
        img = (a, b) if a < b else (b, a)
        if img not in edge_set:
            raise ActionError(f"edge {(u, v)} maps outside the edge set")
        edge_map[(u, v)] = img
    return ElementAction(element, vp, lp, edge_map)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_action(graph: SymmetricGraph) -> ValidationReport:
    """Check that the stored permutations define a valid symmetric graph.

    Verifies generator orders, the dihedral relation, closure of the edge
    set, loop incidence equivariance, the rule that a loop may only be fixed
    by order-2 elements whose vertex is fixed, and that sigma labels appear
    exactly on mirror-fixed loops.  Violations come back as data; nothing is
    raised here.
    """
    group = graph.group
    n = graph.num_vertices
    bad: list[str] = []
    idv = tuple(range(n))
    idl = {l.id: l.id for l in graph.loops}
    by_id = {l.id: l for l in graph.loops}

    rot_v, rot_l = graph.generator_perms(ref=False)
    vp, lp = idv, idl
    for _ in range(group.rotation_order):
        vp, lp = _compose_vperm(rot_v, vp), _compose_lperm(rot_l, lp)
    if vp != idv or lp != idl:
        bad.append("rotation generator order does not divide the group order")

    if group.has_reflection:
        ref_v, ref_l = graph.generator_perms(ref=True)
        if _compose_vperm(ref_v, ref_v) != idv or _compose_lperm(ref_l, ref_l) != idl:
            bad.append("reflection generator is not an involution")
        if group.rotation_order > 1:
            # s c s = c^-1
            lhs_v = _compose_vperm(ref_v, _compose_vperm(rot_v, ref_v))
            lhs_l = _compose_lperm(ref_l, _compose_lperm(rot_l, ref_l))
            inv_v = tuple(rot_v.index(i) for i in range(n))
            inv_l = {v: k for k, v in rot_l.items()}
            if lhs_v != inv_v or lhs_l != inv_l:
                bad.append("generators do not satisfy the dihedral relation")

    edge_set = set(graph.edges)
    gens = [(rot_v, rot_l, "rotation")] if group.rotation_order > 1 else []
    if group.has_reflection:
        gens.append((*graph.generator_perms(ref=True), "reflection"))
    for gv, gl, name in gens:
        for (u, v) in graph.edges:
            a, b = gv[u], gv[v]
            if ((a, b) if a < b else (b, a)) not in edge_set:
                bad.append(f"{name} does not preserve edge ({u}, {v})")
        for l in graph.loops:
            img = by_id[gl[l.id]]
            if img.vertex != gv[l.vertex]:
                bad.append(
                    f"{name} sends loop {l.id} at {l.vertex} to loop {img.id}"
                    f" at {img.vertex}, expected vertex {gv[l.vertex]}"
                )

    if bad:
        return ValidationReport(False, tuple(bad))

    tables = element_tables(graph)
    mirror_fixed: set[int] = set()
    for elem in group.elements():
        if elem == group.identity():
            continue
        evp, elp = tables[elem]
        order = group.element_order(elem)
        for l in graph.loops:
            if elp[l.id] != l.id:
                continue
            if order != 2:
                bad.append(
                    f"loop {l.id} fixed by {group.element_label(elem)}"
                    f" of order {order}"
                )
            if evp[l.vertex] != l.vertex:
                bad.append(f"loop {l.id} fixed but its vertex {l.vertex} is not")
            if elem.ref:
                mirror_fixed.add(l.id)
    for l in graph.loops:
        if l.id in mirror_fixed and l.sigma_label is None:
            bad.append(f"loop {l.id} is mirror-fixed but has no sigma_label")
        if l.id not in mirror_fixed and l.sigma_label is not None:
            bad.append(f"loop {l.id} has a sigma_label but no mirror fixes it")

    return ValidationReport(not bad, tuple(bad))


# -- orbits and stabilizers ------------------------------------------------


@dataclass(frozen=True)
class Orbits:
    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[tuple[int, int], ...], ...]
    loops: tuple[tuple[int, ...], ...]


def orbits(graph: SymmetricGraph) -> Orbits:
    """Vertex, edge, and loop orbits, each sorted and ordered by minimum."""
    tables = element_tables(graph)
    perms = list(tables.values())

    vseen: set[int] = set()
    vorbs = []
    for v in range(graph.num_vertices):
        if v in vseen:
            continue
        orb = sorted({vp[v] for vp, _ in perms})
        vseen.update(orb)
        vorbs.append(tuple(orb))

    eseen: set[tuple[int, int]] = set()
    eorbs = []
    for e in graph.edges:
        if e in eseen:
            continue
        orb = set()
        for vp, _ in perms:
            a, b = vp[e[0]], vp[e[1]]
            orb.add((a, b) if a < b else (b, a))
        orb = sorted(orb)
        eseen.update(orb)
        eorbs.append(tuple(orb))

    lseen: set[int] = set()
    lorbs = []
    for l in graph.loops:
        if l.id in lseen:
            continue
        orb = sorted({lp[l.id] for _, lp in perms})
        lseen.update(orb)
        lorbs.append(tuple(orb))

    return Orbits(tuple(vorbs), tuple(eorbs), tuple(lorbs))


def vertex_orbit(graph: SymmetricGraph, v: int) -> tuple[int, ...]:
    return tuple(sorted({vp[v] for vp, _ in element_tables(graph).values()}))


def stabilizers(graph: SymmetricGraph, tables, kind: str) -> tuple[tuple[GroupElement, ...], ...]:
    """Nonidentity elements fixing each vertex or loop, in canonical order.

    ``tables`` is ``element_tables(graph)``.  ``kind`` is ``"vertex"``
    (one entry per vertex index) or ``"loop"`` (aligned with ``graph.loops``).
    """
    if kind == "vertex":
        perm, items = 0, range(graph.num_vertices)
    elif kind == "loop":
        perm, items = 1, graph.loop_ids
    else:
        raise RangeError(f"unknown stabilizer kind {kind!r}")
    group = graph.group
    nonid = [e for e in group.elements() if e != group.identity()]
    return tuple(tuple(e for e in nonid if tables[e][perm][x] == x) for x in items)


def vertex_stabilizer(graph: SymmetricGraph, v: int) -> tuple[GroupElement, ...]:
    """Nonidentity elements fixing the vertex, in canonical order."""
    if not 0 <= v < graph.num_vertices:
        raise RangeError(f"vertex {v} out of range")
    return stabilizers(graph, element_tables(graph), "vertex")[v]


def loop_stabilizer(graph: SymmetricGraph, loop_id: int) -> tuple[GroupElement, ...]:
    graph.loop_by_id(loop_id)
    index = graph.loop_ids.index(loop_id)
    return stabilizers(graph, element_tables(graph), "loop")[index]


# -- fixed counts ----------------------------------------------------------


@dataclass(frozen=True)
class ElementCounts:
    """Fixed vertices/edges/loops of one element (mirror loops split by sign)."""

    element: GroupElement
    label: str
    vertices: int
    edges: int
    loops: int
    loops_plus: int | None = None
    loops_minus: int | None = None


@dataclass(frozen=True)
class FixedCounts:
    per_element: tuple[ElementCounts, ...]

    def by_label(self, label: str) -> ElementCounts:
        for c in self.per_element:
            if c.label == label:
                return c
        raise KeyError(label)


def mirror_sign(
    group: GroupSpec,
    loop: Loop,
    stabilizer: Sequence[GroupElement],
    mirror: GroupElement,
) -> int:
    """Effective +-1 sign of a mirror-fixed loop under one fixing mirror.

    ``stabilizer`` is the loop's stabilizer in canonical order (an entry of
    ``stabilizers(graph, tables, "loop")``).  The stored label belongs to
    the first fixing reflection; the only other possible fixing mirror
    differs by the half-turn, which negates the normal.
    """
    if loop.sigma_label is None:
        raise ActionError(f"loop {loop.id} has no sigma_label")
    fixing = [e for e in stabilizer if e.ref]
    if mirror not in fixing:
        raise ActionError(f"{group.element_label(mirror)} does not fix loop {loop.id}")
    sign = 1 if loop.sigma_label == "+" else -1
    return sign if mirror == fixing[0] else -sign


def loop_mirror_sign(graph: SymmetricGraph, loop_id: int, mirror: GroupElement) -> int:
    """``mirror_sign`` of the loop with this id, from a fresh action table."""
    loop = graph.loop_by_id(loop_id)
    return mirror_sign(graph.group, loop, loop_stabilizer(graph, loop_id), mirror)


def fixed_counts(graph: SymmetricGraph) -> FixedCounts:
    """Per-element counts of fixed vertices, edges, and loops.

    For reflection elements the fixed loops are additionally split into
    normals preserved (+) and inverted (-) under that mirror.  Requires a
    valid action (mirror-fixed loops must carry labels).
    """
    group = graph.group
    tables = element_tables(graph)
    # the loop signs need stabilizers, which only mirror elements read
    lstab = stabilizers(graph, tables, "loop") if group.has_reflection else ()
    out = []
    for elem in group.elements():
        vp, lp = tables[elem]
        v_fix = sum(1 for i in range(graph.num_vertices) if vp[i] == i)
        e_fix = 0
        for (u, v) in graph.edges:
            a, b = vp[u], vp[v]
            if ((a, b) if a < b else (b, a)) == (u, v):
                e_fix += 1
        fixed_loops = [l for l in graph.loops if lp[l.id] == l.id]
        plus = minus = None
        if elem.ref:
            plus = minus = 0
            for l, stab in zip(graph.loops, lstab):
                if lp[l.id] != l.id:
                    continue
                if mirror_sign(group, l, stab, elem) > 0:
                    plus += 1
                else:
                    minus += 1
        out.append(
            ElementCounts(
                elem,
                group.element_label(elem),
                v_fix,
                e_fix,
                len(fixed_loops),
                plus,
                minus,
            )
        )
    return FixedCounts(tuple(out))


# -- symmetric connectivity ------------------------------------------------


def symmetric_components(graph: SymmetricGraph) -> tuple[tuple[int, ...], ...]:
    """Partition of the vertices into symmetrically connected components.

    Two vertices lie together when they are joined by a path after also
    identifying every vertex with its whole orbit; each part is closed under
    both adjacency and the group action.
    """
    parent = list(range(graph.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for (u, v) in graph.edges:
        union(u, v)
    for vp, _ in element_tables(graph).values():
        for v in range(graph.num_vertices):
            union(v, vp[v])

    groups: dict[int, list[int]] = {}
    for v in range(graph.num_vertices):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


# -- relabeling and restriction ---------------------------------------------


def relabel(
    graph: SymmetricGraph,
    vertex_map: Sequence[int],
    loop_id_map: Mapping[int, int] | None = None,
) -> SymmetricGraph:
    """Rename vertices (and optionally loop ids), conjugating the action."""
    n = graph.num_vertices
    vm = _check_perm(vertex_map, n, "vertex_map")
    lm = dict(loop_id_map) if loop_id_map is not None else {l.id: l.id for l in graph.loops}
    if sorted(lm) != sorted(graph.loop_ids) or len(set(lm.values())) != len(lm):
        raise RangeError("loop_id_map must be a bijection on the loop ids")

    def conj_v(perm: tuple[int, ...] | None) -> tuple[int, ...] | None:
        if perm is None:
            return None
        out = [0] * n
        for i in range(n):
            out[vm[i]] = vm[perm[i]]
        return tuple(out)

    def conj_l(lperm: tuple[int, ...] | None) -> dict[int, int] | None:
        if lperm is None:
            return None
        return {lm[l.id]: lm[img] for l, img in zip(graph.loops, lperm)}

    return SymmetricGraph(
        group=graph.group,
        num_vertices=n,
        edges=tuple((vm[u], vm[v]) for (u, v) in graph.edges),
        loops=tuple(Loop(lm[l.id], vm[l.vertex], l.sigma_label) for l in graph.loops),
        rotation_vertex_perm=conj_v(graph.rotation_vertex_perm),
        rotation_loop_perm=conj_l(graph.rotation_loop_perm),
        reflection_vertex_perm=conj_v(graph.reflection_vertex_perm),
        reflection_loop_perm=conj_l(graph.reflection_loop_perm),
    )


def induced_subgraph(
    graph: SymmetricGraph, vertices: Iterable[int]
) -> tuple[SymmetricGraph, dict[int, int]]:
    """Restrict to an action-closed vertex set; loop ids are kept.

    Returns the subgraph (vertices renumbered monotonically) and the map
    old index -> new index.
    """
    keep = sorted(set(vertices))
    vmap = {v: i for i, v in enumerate(keep)}
    keep_set = set(keep)

    def restrict_v(perm: tuple[int, ...] | None) -> tuple[int, ...] | None:
        if perm is None:
            return None
        for v in keep:
            if perm[v] not in keep_set:
                raise ActionError("vertex set is not closed under the action")
        return tuple(vmap[perm[v]] for v in keep)

    loops = tuple(
        Loop(l.id, vmap[l.vertex], l.sigma_label) for l in graph.loops if l.vertex in keep_set
    )
    kept_ids = {l.id for l in loops}

    def restrict_l(lperm: tuple[int, ...] | None) -> dict[int, int] | None:
        if lperm is None:
            return None
        return {l.id: img for l, img in zip(graph.loops, lperm) if l.id in kept_ids}

    return (
        SymmetricGraph(
            group=graph.group,
            num_vertices=len(keep),
            edges=tuple(
                (vmap[u], vmap[v])
                for (u, v) in graph.edges
                if u in keep_set and v in keep_set
            ),
            loops=loops,
            rotation_vertex_perm=restrict_v(graph.rotation_vertex_perm),
            rotation_loop_perm=restrict_l(graph.rotation_loop_perm),
            reflection_vertex_perm=restrict_v(graph.reflection_vertex_perm),
            reflection_loop_perm=restrict_l(graph.reflection_loop_perm),
        ),
        vmap,
    )


__all__ = [
    "GROUP_KINDS",
    "GroupElement",
    "GroupSpec",
    "Loop",
    "SymmetricGraph",
    "ElementAction",
    "ValidationReport",
    "Orbits",
    "ElementCounts",
    "FixedCounts",
    "element_tables",
    "element_action",
    "validate_action",
    "orbits",
    "vertex_orbit",
    "stabilizers",
    "vertex_stabilizer",
    "loop_stabilizer",
    "mirror_sign",
    "loop_mirror_sign",
    "fixed_counts",
    "symmetric_components",
    "relabel",
    "induced_subgraph",
]
