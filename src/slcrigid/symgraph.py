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

A graph's action on its vertices and loops is built once, on first use, by
``element_tables`` and kept on the graph as ``SymmetricGraph.action``: two
read-only int64 tables with one row per group element in canonical order,
the image of each vertex and the index in ``loops`` of each loop's image.
``SymmetricGraph.edge_ends`` holds the edges as an (edges, 2) array.
Fixed counts, stabilizers, orbits and ``validate_action`` here, and the
sampler, ``check_framework`` and the rigidity matrix in ``realize``, read
those.  The ``validate_action`` report is kept the same way, as
``SymmetricGraph.validation``, so a graph is validated once however many
stages require a valid action.  None of these is a field, so ``==``,
``hash``, ``repr`` and ``dataclasses.replace`` ignore them, and a
replaced graph builds its own.

A graph's rows are normalised once, when it is built, by
``sparsity._normalize``: each edge a sorted pair u < v of Python ints.  Any
integer vertex ids are accepted, NumPy integers included; a bool or a
value that is not an integer raises ``RangeError``.  ``pebble_check`` and
``subset_audit`` take the kept edges as they are.

Every graph derived from another is built by one routine, ``_assembled``:
a relabelled copy, an induced subgraph, and in ``henneberg`` a grown, a
reduced and a replayed graph.  It carries each generator across a vertex
and loop-id map and drops the vertices the map leaves out, with their rows.

All types are immutable; functions return new values.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ActionError, RangeError, SchemaError
from .sparsity import _normalize, _vertex_id

GROUP_KINDS = ("cyclic", "reflection", "dihedral")

_QUARTER_COS_SIN = ((1, 0), (0, 1), (-1, 0), (0, -1))
_EIGHTH_MIRROR_DIR = ((1, 0), (1, 1), (0, 1), (-1, 1))

# Residues stay below 2**31, so a product of two fits in an int64.
_PRIME_BOUND = 2**31
# benchmark/oracle.py ranks modulo this prime; skipping it keeps that check
# of the package's ranks in a field of its own.
_ORACLE_PRIME = 2_147_483_629


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5 and 7: deterministic below 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """F_p together with a primitive m-th root of unity ``root``.

    ``root`` stands for exp(2 pi i / m), so every value of Z[1/2,
    exp(2 pi i / m)] has an image in F_p, and the images keep every
    polynomial identity between the values.
    """

    prime: int
    order: int  # m
    root: int

    def root_of_unity(self, k: int) -> int:
        """The image of exp(2 pi i / k), for k dividing ``order``."""
        return pow(self.root, self.order // k, self.prime)

    def cos_sin(self, num: int, den: int) -> tuple[int, int]:
        """The images of cos and sin of 2 pi num / den, for den dividing
        ``order`` (and 4 dividing it, for i)."""
        p = self.prime
        z = pow(self.root_of_unity(den), num, p)
        z_inv = pow(z, -1, p)
        two_i = 2 * self.root_of_unity(4)
        return (z + z_inv) * pow(2, -1, p) % p, (z - z_inv) * pow(two_i, -1, p) % p


@cache
def _prime_field(rotation_order: int) -> PrimeField:
    """The largest prime p < 2**31 with p = 1 (mod m), m = lcm(4, 2N), other
    than _ORACLE_PRIME, with a primitive m-th root of unity in it."""
    m = math.lcm(4, 2 * rotation_order)
    p = (_PRIME_BOUND - 2) // m * m + 1
    while p == _ORACLE_PRIME or not _is_prime(p):
        p -= m
        if p <= m:
            raise RangeError(f"no prime below 2**31 is 1 modulo {m}")
    factors = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    # a^((p-1)/m) has order m unless its power m/q is 1 for a prime q | m
    roots = (pow(a, (p - 1) // m, p) for a in range(2, p))
    root = next(x for x in roots if all(pow(x, m // q, p) != 1 for q in factors))
    return PrimeField(p, m, root)


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

    @cache
    def elements(self) -> tuple[GroupElement, ...]:
        """The elements in canonical order: rotations c^0..c^(n-1), then
        c^r * s.  Worked out once per group."""
        n = self.rotation_order
        out = [GroupElement(r, False) for r in range(n)]
        if self.has_reflection:
            out += [GroupElement(r, True) for r in range(n)]
        return tuple(out)

    def index(self, a: GroupElement) -> int:
        """Position of the element in ``elements()``."""
        if not (0 <= a.rot < self.rotation_order) or (a.ref and not self.has_reflection):
            raise ActionError(f"element {a} is not in group {self.name}")
        return a.rot + (self.rotation_order if a.ref else 0)

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

    @property
    def prime_field(self) -> PrimeField:
        """The field modulo a prime that the group's matrices and mirror
        directions have images in: p = 1 (mod lcm(4, 2N)) for rotation
        order N.  Found on first use, once per rotation order."""
        return _prime_field(self.rotation_order)

    def tau_mod(self, a: GroupElement) -> tuple[tuple[int, int], tuple[int, int]]:
        """The symmetry matrix's image in ``prime_field``, as residues."""
        p = self.prime_field.prime
        c, s = self.prime_field.cos_sin(a.rot, self.rotation_order)
        if a.ref:
            return ((c, s), (s, -c % p))
        return ((c, -s % p), (s, c))

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

    def mirror_direction_mod(self, a: GroupElement) -> tuple[int, int]:
        """``mirror_direction``'s image in ``prime_field``, as residues."""
        if not a.ref:
            raise ActionError("mirror_direction_mod needs a reflection element")
        return self.prime_field.cos_sin(a.rot, 2 * self.rotation_order)


@dataclass(frozen=True)
class Loop:
    """A loop row: one vertex plus an optional mirror-sign label."""

    id: int
    vertex: int
    sigma_label: str | None = None


def _as_loop(entry) -> Loop:
    """The entry as a Loop whose id and vertex are Python ints."""
    loop = entry if isinstance(entry, Loop) else Loop(*entry)
    if type(loop.id) is int and type(loop.vertex) is int:
        return loop
    lid = _vertex_id(loop.id, "loop id")
    return replace(loop, id=lid, vertex=_vertex_id(loop.vertex, "loop {} vertex", lid))


def _int_ids(ids: Iterable, what: str) -> tuple[int, ...]:
    """The ids as a tuple of Python ints; a bool or a non-integer raises."""
    t = tuple(ids)
    if set(map(type, t)) <= {int}:
        return t
    return tuple(_vertex_id(x, "{} entry", what) for x in t)


def _check_perm(perm: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    p = _int_ids(perm, what)
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
        edges, _ = _normalize(n, self.edges, ())
        object.__setattr__(self, "edges", edges)

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
                aligned = lp
            aligned = _int_ids(aligned, lp_name)
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

    def loop_index(self, loop_id: int) -> int:
        """Position of the loop with this id in ``loops``, which is sorted by id."""
        k = bisect_left(self.loops, loop_id, key=lambda l: l.id)
        if k == len(self.loops) or self.loops[k].id != loop_id:
            raise RangeError(f"no loop with id {loop_id}")
        return k

    @cached_property
    def action(self) -> tuple[np.ndarray, np.ndarray]:
        """``element_tables(self)``, built on first use and kept."""
        return element_tables(self)

    @cached_property
    def edge_ends(self) -> np.ndarray:
        """``edges`` as a read-only int64 array of shape (edges, 2), kept."""
        ends = _table(self.edges, 2)
        ends.flags.writeable = False
        return ends

    @cached_property
    def validation(self) -> ValidationReport:
        """``validate_action(self)``, worked out on first use and kept."""
        return validate_action(self)


def _table(rows, width: int) -> np.ndarray:
    """Equal-length tuples as the rows of an int64 array."""
    flat = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * width)
    return flat.reshape(len(rows), width)


def element_tables(graph: SymmetricGraph) -> tuple[np.ndarray, np.ndarray]:
    """Vertex and loop images of every group element, in canonical order.

    Returns read-only int64 tables ``(vimages, limages)`` with one row per
    element of ``graph.group.elements()``: ``vimages[g, v]`` is the image
    of vertex v, ``limages[g, k]`` the index in ``graph.loops`` of the
    image of ``loops[k]``.  Row c^r is the rotation after row c^(r-1), and
    row c^r s is row c^r after the reflection.  This is what
    ``graph.action`` holds: read that, it is built once per graph.  With
    an invalid action the rows are still well defined but may not respect
    the graph.
    """
    group = graph.group
    n_rot, ids = group.rotation_order, np.array(graph.loop_ids, dtype=np.int64)
    vimages = np.empty((group.size, graph.num_vertices), dtype=np.int64)
    limages = np.empty((group.size, len(ids)), dtype=np.int64)
    vimages[0], limages[0] = np.arange(graph.num_vertices), np.arange(len(ids))

    def generator(name: str) -> tuple[np.ndarray, np.ndarray]:
        loop_perm = np.array(getattr(graph, f"{name}_loop_perm"), dtype=np.int64)
        return (
            np.array(getattr(graph, f"{name}_vertex_perm"), dtype=np.int64),
            np.searchsorted(ids, loop_perm),
        )

    if n_rot > 1:
        rv, rl = generator("rotation")
        for r in range(1, n_rot):
            vimages[r], limages[r] = rv[vimages[r - 1]], rl[limages[r - 1]]
    if group.has_reflection:
        sv, sl = generator("reflection")
        vimages[n_rot:], limages[n_rot:] = vimages[:n_rot, sv], limages[:n_rot, sl]
    vimages.flags.writeable = limages.flags.writeable = False
    return vimages, limages


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
    raised here.  Every check runs on ``graph.action`` and
    ``graph.edge_ends``; only the items it flags are formatted.
    """
    group = graph.group
    n_rot = group.rotation_order
    n = graph.num_vertices
    vimages, limages = graph.action
    bad: list[str] = []

    def is_identity(f: int, g: int) -> bool:
        """Whether element f after element g fixes every vertex and loop
        (row 0 is the identity's)."""
        return bool(
            (vimages[f][vimages[g]] == vimages[0]).all()
            and (limages[f][limages[g]] == limages[0]).all()
        )

    # c^n = c after c^(n-1); s s = 1; s c s = c^-1 iff (c s)(c s) = 1
    if n_rot > 1 and not is_identity(1, n_rot - 1):
        bad.append("rotation generator order does not divide the group order")
    if group.has_reflection:
        if not is_identity(n_rot, n_rot):
            bad.append("reflection generator is not an involution")
        if n_rot > 1 and not is_identity(n_rot + 1, n_rot + 1):
            bad.append("generators do not satisfy the dihedral relation")

    # per generator, each edge's image as a key u * n + v with u < v, and
    # each loop's vertex against its image loop's vertex
    gens = [(1, "rotation")] if n_rot > 1 else []
    if group.has_reflection:
        gens.append((n_rot, "reflection"))
    ends = graph.edge_ends
    keys = ends[:, 0] * n + ends[:, 1]  # ascending: the edges are sorted
    at = np.array(graph.loop_vertices, dtype=np.int64)
    for g, name in gens:
        a, b = vimages[g][ends[:, 0]], vimages[g][ends[:, 1]]
        image_keys = np.minimum(a, b) * n + np.maximum(a, b)
        # g permutes the vertices, so it preserves the edge set when the
        # image keys, sorted, are the keys
        if not (np.sort(image_keys) == keys).all():
            for i in (~np.isin(image_keys, keys)).nonzero()[0].tolist():
                u, v = graph.edges[i]
                bad.append(f"{name} does not preserve edge ({u}, {v})")
        expected = vimages[g][at]
        for k in (at[limages[g]] != expected).nonzero()[0].tolist():
            l, img = graph.loops[k], graph.loops[limages[g, k]]
            bad.append(
                f"{name} sends loop {l.id} at {l.vertex} to loop {img.id}"
                f" at {img.vertex}, expected vertex {expected[k]}"
            )

    if bad:
        return ValidationReport(False, tuple(bad))

    elements = group.elements()[1:]
    fixed = _fixed(graph, "loop")
    # (element, loop) pairs in element order, then loop order
    for g, k in zip(*(x.tolist() for x in fixed.nonzero())):
        elem, l = elements[g], graph.loops[k]
        order = group.element_order(elem)
        if order != 2:
            bad.append(f"loop {l.id} fixed by {group.element_label(elem)} of order {order}")
        if vimages[g + 1, l.vertex] != l.vertex:
            bad.append(f"loop {l.id} fixed but its vertex {l.vertex} is not")
    # the reflections are the elements from n_rot on
    mirror_fixed = fixed[n_rot - 1 :].any(axis=0).tolist()
    for l, mirrored in zip(graph.loops, mirror_fixed):
        if mirrored and l.sigma_label is None:
            bad.append(f"loop {l.id} is mirror-fixed but has no sigma_label")
        if not mirrored and l.sigma_label is not None:
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
    vimages, limages = graph.action
    vcols = vimages.T.tolist()  # each vertex's images

    vseen: set[int] = set()
    vorbs = []
    for v in range(graph.num_vertices):
        if v in vseen:
            continue
        orb = sorted(set(vcols[v]))
        vseen.update(orb)
        vorbs.append(tuple(orb))

    eseen: set[tuple[int, int]] = set()
    eorbs = []
    for e in graph.edges:
        if e in eseen:
            continue
        orb = sorted({(a, b) if a < b else (b, a) for a, b in zip(vcols[e[0]], vcols[e[1]])})
        eseen.update(orb)
        eorbs.append(tuple(orb))

    ids = graph.loop_ids
    lseen: set[int] = set()
    lorbs = []
    for k, images in enumerate(limages.T.tolist()):
        if ids[k] in lseen:
            continue
        orb = sorted({ids[i] for i in images})
        lseen.update(orb)
        lorbs.append(tuple(orb))

    return Orbits(tuple(vorbs), tuple(eorbs), tuple(lorbs))


def _fixed(graph: SymmetricGraph, kind: str) -> np.ndarray:
    """Whether each nonidentity element, in canonical order, fixes each
    vertex, edge or loop: a bool array with one row per element and one
    column per item, read off ``graph.action``.

    An edge is fixed when its ends are fixed or swapped.
    """
    vimages, limages = graph.action
    if kind == "vertex":
        return vimages[1:] == np.arange(graph.num_vertices)
    if kind == "edge":
        u, v = graph.edge_ends.T
        a, b = vimages[1:, u], vimages[1:, v]
        return ((a == u) & (b == v)) | ((a == v) & (b == u))
    if kind == "loop":
        return limages[1:] == np.arange(len(graph.loops))
    raise RangeError(f"unknown stabilizer kind {kind!r}")


def stabilizers(graph: SymmetricGraph, kind: str) -> tuple[tuple[GroupElement, ...], ...]:
    """Nonidentity elements fixing each vertex, edge or loop, in canonical order.

    ``kind`` is ``"vertex"`` (one entry per vertex index), ``"edge"``
    (aligned with ``graph.edges``) or ``"loop"`` (aligned with
    ``graph.loops``).
    """
    fixed = _fixed(graph, kind)
    elements = graph.group.elements()[1:]
    out: list[list[GroupElement]] = [[] for _ in range(fixed.shape[1])]
    for g, i in zip(*(x.tolist() for x in np.nonzero(fixed))):
        out[i].append(elements[g])
    return tuple(map(tuple, out))


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
    ``stabilizers(graph, "loop")``).  The stored label belongs to the first
    fixing reflection; the only other possible fixing mirror differs by the
    half-turn, which negates the normal.
    """
    if loop.sigma_label is None:
        raise ActionError(f"loop {loop.id} has no sigma_label")
    fixing = [e for e in stabilizer if e.ref]
    if mirror not in fixing:
        raise ActionError(f"{group.element_label(mirror)} does not fix loop {loop.id}")
    sign = 1 if loop.sigma_label == "+" else -1
    return sign if mirror == fixing[0] else -sign


def fixed_counts(graph: SymmetricGraph) -> FixedCounts:
    """Per-element counts of fixed vertices, edges, and loops.

    For reflection elements the fixed loops are additionally split into
    normals preserved (+) and inverted (-) under that mirror.  Requires a
    valid action (mirror-fixed loops must carry labels).
    """
    group = graph.group
    vfix, efix, lfix = (_fixed(graph, kind) for kind in ("vertex", "edge", "loop"))
    lstab = stabilizers(graph, "loop") if group.has_reflection else ()
    identity = group.identity()
    out = [
        ElementCounts(
            identity,
            group.element_label(identity),
            graph.num_vertices,
            len(graph.edges),
            len(graph.loops),
        )
    ]
    counts = zip(*(m.sum(axis=1).tolist() for m in (vfix, efix, lfix)))
    for elem, fixed_loops, (nv, ne, nl) in zip(group.elements()[1:], lfix, counts):
        plus = minus = None
        if elem.ref:
            signs = [
                mirror_sign(group, graph.loops[k], lstab[k], elem)
                for k in np.flatnonzero(fixed_loops).tolist()
            ]
            plus, minus = signs.count(1), signs.count(-1)
        out.append(ElementCounts(elem, group.element_label(elem), nv, ne, nl, plus, minus))
    return FixedCounts(tuple(out))


# -- symmetric connectivity ------------------------------------------------


def _union_find(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Root of each of 0..n-1 once every pair has been joined."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    return [find(x) for x in range(n)]


def symmetric_components(graph: SymmetricGraph) -> tuple[tuple[int, ...], ...]:
    """Partition of the vertices into symmetrically connected components.

    Two vertices lie together when they are joined by a path after also
    identifying every vertex with its whole orbit; each part is closed under
    both adjacency and the group action.
    """
    n = graph.num_vertices
    # every element's permutation is a product of the generators', so
    # joining each vertex to its generator images joins its whole orbit
    gens = [perm for _, perm, _ in _graph_generators(graph)]
    roots = _union_find(
        n, chain(graph.edges, ((v, p[v]) for p in gens for v in range(n)))
    )
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(roots[v], []).append(v)
    return tuple(tuple(g) for g in sorted(groups.values()))


# -- derived graphs ----------------------------------------------------------


def _graph_generators(
    graph: SymmetricGraph,
) -> list[tuple[str, tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """The graph's generators, rotation first, each as its field-name
    stem, its vertex perm and its loop perm as (id, image id) pairs: what
    ``_assembled`` takes."""
    return [
        (name, perm, tuple(zip(graph.loop_ids, getattr(graph, f"{name}_loop_perm"))))
        for name in ("rotation", "reflection")
        if (perm := getattr(graph, f"{name}_vertex_perm")) is not None
    ]


def _assembled(
    group: GroupSpec,
    edges: Iterable[tuple[int, int]],
    loops: Iterable[Loop],
    gens: Iterable[tuple[str, Sequence[int], Iterable[tuple[int, int]]]],
    vertex_map: Mapping[int, int],
    loop_id_map: Mapping[int, int] | None = None,
) -> SymmetricGraph:
    """The graph of these rows and generators, built once with vertex v
    renamed ``vertex_map[v]`` and loop id i renamed ``loop_id_map[i]``
    (kept when None), the action conjugated to match: the one builder of
    every graph derived from another.

    ``gens`` gives each generator as in ``_graph_generators``.  A vertex
    that ``vertex_map`` leaves out is dropped with its rows, so the map
    must send the kept vertices onto 0..len(vertex_map)-1; a kept vertex
    that a generator sends to a dropped one raises ``ActionError``.
    """
    vm, lm = vertex_map, loop_id_map
    kept = [l for l in loops if l.vertex in vm]
    ids = {l.id for l in kept}
    fields = {}
    for name, perm, lperm in gens:
        out = [0] * len(vm)
        for v, new in vm.items():
            if perm[v] not in vm:
                raise ActionError("vertex set is not closed under the action")
            out[new] = vm[perm[v]]
        fields[f"{name}_vertex_perm"] = tuple(out)
        pairs = ((i, image) for i, image in lperm if i in ids)
        fields[f"{name}_loop_perm"] = (
            dict(pairs) if lm is None else {lm[i]: lm[image] for i, image in pairs}
        )
    return SymmetricGraph(
        group,
        len(vm),
        tuple((vm[u], vm[v]) for u, v in edges if u in vm and v in vm),
        tuple(Loop(l.id if lm is None else lm[l.id], vm[l.vertex], l.sigma_label) for l in kept),
        **fields,
    )


def _renaming(
    n: int, ids: Iterable[int], vertex_map: Sequence[int], loop_id_map: Mapping[int, int]
) -> dict[int, int]:
    """``vertex_map`` as ``_assembled`` takes it.  Raises ``RangeError``
    unless it is a permutation of 0..n-1 and ``loop_id_map`` a bijection
    on the loop ids ``ids``."""
    lm = loop_id_map
    if sorted(lm) != sorted(ids) or len(set(lm.values())) != len(lm):
        raise RangeError("loop_id_map must be a bijection on the loop ids")
    return dict(enumerate(_check_perm(vertex_map, n, "vertex_map")))


def relabel(
    graph: SymmetricGraph,
    vertex_map: Sequence[int],
    loop_id_map: Mapping[int, int] | None = None,
) -> SymmetricGraph:
    """Rename vertices (and optionally loop ids), conjugating the action;
    built by ``_assembled``."""
    ids = graph.loop_ids
    lm = dict(loop_id_map) if loop_id_map is not None else {i: i for i in ids}
    vm = _renaming(graph.num_vertices, ids, vertex_map, lm)
    return _assembled(graph.group, graph.edges, graph.loops, _graph_generators(graph), vm, lm)


def induced_subgraph(
    graph: SymmetricGraph, vertices: Iterable[int]
) -> tuple[SymmetricGraph, dict[int, int]]:
    """Restrict to an action-closed vertex set; loop ids are kept.

    Returns the subgraph, built by ``_assembled`` with the vertices
    renumbered monotonically, and the map old index -> new index.  A
    vertex outside 0..n-1 raises ``RangeError``; a set the action does
    not keep, ``ActionError``.
    """
    keep = sorted(set(_int_ids(vertices, "vertices")))
    if keep and not (0 <= keep[0] and keep[-1] < graph.num_vertices):
        raise RangeError(f"vertices must lie in 0..{graph.num_vertices - 1}")
    vmap = {v: i for i, v in enumerate(keep)}
    gens = _graph_generators(graph)
    return _assembled(graph.group, graph.edges, graph.loops, gens, vmap), vmap


__all__ = [
    "GROUP_KINDS",
    "GroupElement",
    "GroupSpec",
    "Loop",
    "SymmetricGraph",
    "ValidationReport",
    "Orbits",
    "ElementCounts",
    "FixedCounts",
    "element_tables",
    "validate_action",
    "orbits",
    "stabilizers",
    "mirror_sign",
    "fixed_counts",
    "symmetric_components",
    "relabel",
    "induced_subgraph",
]
