"""Placements, rigidity matrices, rank backends, and motion spaces.

A framework places every vertex at a plane point p_v and gives every loop a
normal q_l; the loop constrains its vertex to the line through p_v with
normal q_l.  The rigidity matrix has one row per edge, (p_u - p_v | p_v -
p_u) in the endpoint columns, and one row per loop, q_l in the vertex
columns.  With 2|V| columns and no trivial motions to quotient out:

* rigid      <=> rank = 2|V|
* independent <=> rank = number of rows
* isostatic  <=> both, hence rows = 2|V|.

Placements are sampled symmetrically: rotation-fixed vertices go to the
origin, mirror-fixed vertices onto their mirror line, one random point per
remaining orbit, propagated by the group matrices.  Loop normals follow the
same propagation; a mirror-fixed loop is pinned into the eigenspace its
sign label selects.  The draws are made orbit by orbit, and the propagation
is one array map: each point is its orbit's draw times the matrix of the
first element that sends the orbit's least vertex there.  The points must
be apart (exactly, or within a tolerance for floats), which is checked for
the whole placement at once; a collision draws again from the first orbit
that collides, so a seed gives what placing the orbits one at a time, each
drawn until it is apart from those before, would.  The rigidity matrix
holds its entries as (row, column, value) arrays built from the point
array and the edge array, and the exact rank of residues reads them as
they are.  Coordinates come in one of three arithmetics:
integers for groups whose matrices are integral (rotation order 1, 2 or
4), floats for the others, and residues modulo a prime p for every group
(``modular=True``).  p is below 2**31, so a product of two residues fits in
an int64, and p = 1 (mod lcm(4, 2N)) for rotation order N, so that i, the
rotations and the mirror directions have images in F_p
(``GroupSpec.prime_field``).  A residue sample is then the image of a
generic symmetric placement under a ring map, and its rank modulo p is at
most the generic rank: a full rank proves generic full rank, and a deficit
is a lower bound.  ``classify`` therefore ranks residue samples, exactly;
each bounds the generic rank from below, so it keeps the best trial and
stops at the first that reaches min(rows, 2|V|).  No verdict reads a
tolerance.

The coordinates pick the backend, for ``rank`` and ``motions`` alike: float
coordinates get the float rank, the others the exact one.  The float rank
of real entries is one dense SVD of the matrix: the singular values above
``tol * s_max * max(rows, 2|V|)`` are counted.  The cut is a
heuristic, and it loses rank at a few hundred vertices.

The exact rank of residues eliminates the whole sparse matrix modulo p:
rounds of Markowitz-cheap pivots, at most one per row and column, each
round's Schur complement formed at once, and a dense finish once the rest
has filled in.  The elimination reads only the entries, so a placement off
symmetry or a graph with an invalid stored action is ranked like any
other.  The exact rank of a given integer or rational placement, the
default for one, first ranks the integer rows modulo the group's prime by
the same elimination; full rank there is full rank over the rationals.
Only a deficit is lifted: modulo a few other primes the dense finish
brings the rows to reduced echelon form, and the kernel basis that is the
identity on the free columns, read off there, is combined by CRT and
rational reconstruction (Wang, 1981) and checked exactly against the
integer rows, with twice the primes until every vector checks.  The
checked vectors prove the rank, and exact motions return them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, RangeError, UnsupportedBackendError
from .symcheck import require_valid_action
from .symgraph import GroupSpec, SymmetricGraph, _is_prime, mirror_sign, stabilizers

DEFAULT_TOL = 1e-9
DEFAULT_SCALE = 10 ** 6
DEFAULT_TRIALS = 3
_MAX_RESAMPLES = 200
# share of nonzeros in the live rows x columns at which _rank_mod finishes
# with dense elimination
_DENSE_SHARE = 0.2

Pair = tuple  # (x, y) of int | Fraction | float


@dataclass(frozen=True)
class Framework:
    """A symmetric graph together with vertex points and loop normals.

    ``q`` is aligned with ``graph.loops`` (ascending loop id).  With
    ``prime`` set, every coordinate is a residue in [0, prime), and the
    prime is the one of ``graph.group.prime_field``.
    """

    graph: SymmetricGraph
    p: tuple[Pair, ...]
    q: tuple[Pair, ...]
    prime: int | None = None

    def __post_init__(self) -> None:
        if len(self.p) != self.graph.num_vertices:
            raise RangeError("placement has wrong number of vertex points")
        if len(self.q) != len(self.graph.loops):
            raise RangeError("placement has wrong number of loop normals")
        object.__setattr__(self, "p", tuple(map(tuple, self.p)))
        object.__setattr__(self, "q", tuple(map(tuple, self.q)))
        if not set(map(len, self.p + self.q)) <= {2}:
            raise RangeError("points and normals must be coordinate pairs")
        if self.prime is not None:
            if self.prime != self.graph.group.prime_field.prime:
                raise RangeError(
                    f"{self.graph.group.name} coordinates are residues modulo"
                    f" {self.graph.group.prime_field.prime}, not {self.prime}"
                )
            arrays = self.__dict__.get("_arrays")  # the sampler's, if it made them
            if arrays is not None:
                residues = all(
                    a.dtype == np.int64 and ((a >= 0) & (a < self.prime)).all()
                    for a in arrays
                )
            else:
                residues = all(
                    isinstance(c, int) and 0 <= c < self.prime
                    for pt in self.p + self.q
                    for c in pt
                )
            if not residues:
                raise RangeError(f"coordinates must be residues modulo {self.prime}")
        else:
            try:  # an int past the float range among float coordinates
                finite = all(a.dtype != np.float64 or np.isfinite(a).all() for a in self._arrays)
            except OverflowError:
                finite = False
            if not finite:
                raise RangeError("float coordinates must be finite")

    @property
    def exact(self) -> bool:
        # residues are ints, as __post_init__ checked
        return self.prime is not None or all(
            isinstance(c, (int, Fraction)) for pt in self.p + self.q for c in pt
        )

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """p and q as arrays of shape (n, 2) and (loops, 2): int64
        residues, floats, or (object) the exact numbers as given."""
        if self.prime is not None:
            dtype = np.int64
        else:
            dtype = object if self.exact else np.float64
        return tuple(
            np.array(pts, dtype=dtype).reshape(-1, 2) for pts in (self.p, self.q)
        )


def _taus(group: GroupSpec, prime: int | None, exact: bool) -> np.ndarray:
    """The symmetry matrices as one array, one per element in canonical
    order: int64 residues modulo ``prime`` when it is set, else the
    integer matrices (object) when ``exact``, else floats."""
    elements = group.elements()
    if prime is not None:
        return np.array([group.tau_mod(e) for e in elements], dtype=np.int64)
    if exact:
        return np.array([group.tau_exact(e) for e in elements], dtype=object)
    return np.array([group.tau(e) for e in elements])


def _reduce(vec: Pair, prime: int | None) -> Pair:
    """The vector's residues modulo ``prime``, or the vector when it is None."""
    return vec if prime is None else (vec[0] % prime, vec[1] % prime)


class _Cells:
    """Points bucketed by grid cell, for finding the ones within ``eps``.

    Cells have side 2 * eps, so a point within eps (max norm) of a query
    lies in the 3x3 block of cells around the query's cell even after the
    rounding of the division.  With eps == 0 a point's cell is the point
    itself and only equal points meet.
    """

    def __init__(self, eps: float) -> None:
        self.side = 2.0 * eps
        self.cells: dict[tuple, list] = {}

    def _key(self, pt: Pair) -> tuple:
        if self.side == 0:
            return tuple(pt)
        return (math.floor(pt[0] / self.side), math.floor(pt[1] / self.side))

    def around(self, pt: Pair) -> list:
        """Items added at points in the cells that can hold a point near pt."""
        if self.side == 0:
            return self.cells.get(self._key(pt), [])
        cx, cy = self._key(pt)
        return [
            item
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for item in self.cells.get((cx + dx, cy + dy), ())
        ]

    def add(self, pt: Pair, item) -> None:
        self.cells.setdefault(self._key(pt), []).append(item)


def _orbits(images: np.ndarray, ref: np.ndarray):
    """Orbit data of the items an action table moves, one row of images
    per group element (identity first), ``ref`` flagging the reflections.

    Returns per item its orbit's number (orbits numbered by their least
    item, ascending) and the first element sending that least item, the
    orbit's representative, to it; and per orbit the representative, the
    first reflection fixing it (-1 if none) and whether a rotation other
    than the identity fixes it.
    """
    width = images.shape[1]
    rep = images.min(axis=0)
    first = (images[:, rep] == np.arange(width)).argmax(axis=0)
    reps = np.flatnonzero(rep == np.arange(width))
    fixed = images[:, reps] == reps
    mirrors = fixed & ref[:, None]
    mirror = np.where(mirrors.any(axis=0), mirrors.argmax(axis=0), -1)
    rotated = (fixed & ~ref[:, None])[1:].any(axis=0)
    return np.searchsorted(reps, rep), first, reps, mirror, rotated


def _mapped(taus: np.ndarray, first: np.ndarray, cand: np.ndarray, prime):
    """Each item's point: its element's matrix times its orbit's candidate,
    reduced modulo ``prime`` when set.  A product of two residues and the
    sum of two such stay below 2**63."""
    mats = taus[first]
    pts = mats[:, :, 0] * cand[:, :1] + mats[:, :, 1] * cand[:, 1:]
    return pts if prime is None else pts % prime


def _first_collision(pts: np.ndarray, orbit: np.ndarray, eps: float):
    """The least orbit with a point within ``eps`` (max norm) of another
    point of it or of an orbit before it, or None when all are apart.

    Exact points (eps == 0) are compared in one sort.  Float points go
    through ``_Cells`` in orbit order, each against those before it.
    """
    if not eps:
        order = np.lexsort((orbit, pts[:, 1], pts[:, 0]))
        x, y = pts[order, 0], pts[order, 1]
        same = (x[1:] == x[:-1]) & (y[1:] == y[:-1])
        # in a run of equal points the second entry has the least orbit
        # that collides
        return int(orbit[order[1:][same]].min()) if same.any() else None
    cells = _Cells(eps)
    order = np.argsort(orbit, kind="stable")
    for o, a in zip(orbit[order].tolist(), pts[order].tolist()):
        for b in cells.around(a):
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= eps:
                return o
        cells.add(a, a)
    return None


def _draw_residue(rng: random.Random, prime: int) -> int:
    """``rng.randrange(1, prime)``: the same number from the same state,
    drawn as randrange draws it, bits below prime - 1, without its checks."""
    bits = (prime - 1).bit_length()
    while True:
        r = rng.getrandbits(bits)
        if r < prime - 1:
            return r + 1


def sample_symmetric_placement(
    graph: SymmetricGraph,
    seed: int = 0,
    scale: int = DEFAULT_SCALE,
    modular: bool = False,
) -> Framework:
    """Random symmetric framework on the graph; deterministic in the seed.

    Coordinates are drawn as integers in [-scale, scale], so frameworks for
    groups with integral matrices are exact.  With ``modular`` they are
    drawn in [1, p) instead, for the prime p of ``graph.group.prime_field``,
    and the symmetry matrices are their images there, so the framework is
    exact for every group; ``scale`` is then unused.  Raises RangeError when
    a used scale is below 1, and DegenerateInputError when no injective
    symmetric placement exists (e.g. two rotation-fixed vertices) or when
    resampling cannot separate the points.
    """
    if not modular and scale < 1:
        raise RangeError(f"scale must be positive, not {scale}")
    require_valid_action(graph)
    group = graph.group
    elements = group.elements()
    prime = group.prime_field.prime if modular else None
    if modular:
        direction = group.mirror_direction_mod
    elif group.exact_supported:
        direction = group.mirror_direction_exact
    else:
        direction = group.mirror_direction
    taus = _taus(group, prime, group.exact_supported)
    dtype = taus.dtype
    exact = dtype != np.float64
    ref = np.array([e.ref for e in elements])
    lines = [direction(e) if e.ref else None for e in elements]

    vimages, limages = graph.action
    orbit, first, reps, mirror, rotated = _orbits(vimages, ref)
    # the images of a rotation-fixed vertex are rotation-fixed too
    rot_fixed = np.flatnonzero(rotated[orbit])
    if rot_fixed.size > 1:
        raise DegenerateInputError(
            f"vertices {rot_fixed.tolist()} are all rotation-fixed and would"
            " coincide at the origin"
        )
    # per orbit, where its representative goes: two free draws (None), a
    # fixing mirror's line scaled by one draw, or, when a rotation fixes
    # it, the origin (the empty line; no draw)
    vlines = [
        () if rot else None if g < 0 else lines[g]
        for rot, g in zip(rotated.tolist(), mirror.tolist())
    ]

    rng = random.Random(seed)

    def draw_nonzero() -> int:
        if modular:
            return _draw_residue(rng, prime)
        while True:
            t = rng.randint(-scale, scale)
            if t != 0:
                return t

    def draw(line) -> Pair:
        if line is None:
            return (draw_nonzero(), draw_nonzero())
        if not line:
            return (0, 0)
        t = draw_nonzero()
        return _reduce((line[0] * t, line[1] * t), prime)

    # Every orbit is drawn, mapped and checked at once.  The first orbit
    # with a point on one of its own or of an earlier orbit (within eps for
    # floats) is drawn again, and so is every orbit after it; the generator
    # is seeded again and run through the draws made before, so each orbit
    # gets the draws it would get placed one at a time, redrawn until it
    # is apart from the orbits before it.
    eps = 0.0 if exact else 1e-7 * max(1.0, float(scale))
    cand = [draw(line) for line in vlines]
    rejected = [0] * len(cand)
    while True:
        p = _mapped(taus, first, np.array(cand, dtype=dtype).reshape(-1, 2)[orbit], prime)
        j = _first_collision(p, orbit, eps)
        if j is None:
            break
        rejected[j] += 1
        if rejected[j] == _MAX_RESAMPLES:
            raise DegenerateInputError(
                f"no injective symmetric placement found for the orbit of"
                f" vertex {reps[j]}"
            )
        rng = random.Random(seed)
        for i in range(j + 1):
            for _ in range(rejected[i] + (i < j)):
                draw(vlines[i])
        cand[j:] = [draw(line) for line in vlines[j:]]

    loops = graph.loops
    lorbit, lfirst, lreps, lmirror, _ = _orbits(limages, ref)
    # a mirror-fixed loop's normal lies along the first fixing mirror's
    # line for "+", across it for "-" (as in ``symgraph.mirror_sign``;
    # ``check_framework`` checks it under every fixing mirror)
    llines = [
        None
        if g < 0
        else lines[g]
        if loops[k].sigma_label == "+"
        else (-lines[g][1], lines[g][0])
        for k, g in zip(lreps.tolist(), lmirror.tolist())
    ]
    lcand = np.array([draw(line) for line in llines], dtype=dtype).reshape(-1, 2)
    q = _mapped(taus, lfirst, lcand[lorbit], prime)

    # the arrays are kept as the framework's own, for build_rigidity_matrix,
    # and its residue check runs on them
    fw = object.__new__(Framework)
    fw.__dict__["_arrays"] = (p, q)
    fw.__init__(
        graph,
        p.tolist() if exact else tuple(p),
        q.tolist() if exact else tuple(q),
        prime,
    )
    return fw


def check_framework(fw: Framework, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
    """Symmetry and nondegeneracy residuals of a framework, as messages.

    Checks injectivity, nonzero loop normals, equivariance of the points,
    equivariance of the normals up to sign, and the pinned sign of every
    mirror-fixed loop.  Exact frameworks are compared exactly, residues
    modulo their prime; exact coordinates for a group whose matrices are
    not integral are mapped in floats, so only the origin is equivariant.
    """
    graph, group = fw.graph, fw.graph.group
    exact, prime = fw.exact, fw.prime
    # the span is read in floats, so only for float coordinates
    eps = 0.0 if exact else tol * max([1.0] + [abs(float(c)) for pt in fw.p + fw.q for c in pt])
    taus = _taus(group, prime, exact and group.exact_supported)
    p, q = fw._arrays
    bad: list[str] = []

    def near(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per row, whether the two points are within eps (max norm)."""
        return np.abs(a - b).max(axis=1) <= eps

    def mapped(g: int, pts: np.ndarray) -> np.ndarray:
        return _mapped(taus, np.full(len(pts), g), pts, prime)

    def neg(pts: np.ndarray) -> np.ndarray:
        return -pts if prime is None else -pts % prime

    cells = _Cells(eps)
    coincide = []
    for v, pt in enumerate(fw.p):
        coincide += [
            (u, v)
            for u in cells.around(pt)
            if max(abs(fw.p[u][0] - pt[0]), abs(fw.p[u][1] - pt[1])) <= eps
        ]
        cells.add(pt, v)
    for u, v in sorted(coincide):
        bad.append(f"vertices {u} and {v} coincide")
    for k in np.flatnonzero(np.abs(q).max(axis=1) <= eps).tolist():
        bad.append(f"loop {graph.loops[k].id} has zero normal")

    vimages, limages = graph.action
    qimages = [mapped(g, q) for g in range(len(taus))]
    for g, elem in enumerate(group.elements()[1:], 1):
        label = group.element_label(elem)
        for v in np.flatnonzero(~near(mapped(g, p), p[vimages[g]])).tolist():
            bad.append(f"{label} moves vertex {v} off its image")
        target = q[limages[g]]
        off = ~(near(qimages[g], target) | near(qimages[g], neg(target)))
        for k in np.flatnonzero(off).tolist():
            bad.append(f"{label} moves loop {graph.loops[k].id} normal off its image line")

    # every fixing mirror's sign, from ``mirror_sign``: the sampler pins
    # a loop's normal at the first fixing mirror only
    lstab = stabilizers(graph, "loop")
    for k, (loop, stab) in enumerate(zip(graph.loops, lstab)):
        for elem in (e for e in stab if e.ref):
            sign = mirror_sign(group, loop, stab, elem)
            want = q[k : k + 1] if sign > 0 else neg(q[k : k + 1])
            if not near(qimages[group.index(elem)][k : k + 1], want)[0]:
                bad.append(
                    f"loop {loop.id} normal is not in the"
                    f" {'+' if sign > 0 else '-'}1 eigenspace of"
                    f" {group.element_label(elem)}"
                )
    return tuple(bad)


@dataclass(frozen=True)
class RigidityMatrix:
    """Rows: edges in sorted order, then loops by id.  Columns: 2v, 2v+1.

    ``coo`` holds the entries as (row, column, value) arrays, row by row:
    p_u - p_v at columns 2u, 2u + 1 and p_v - p_u at 2v, 2v + 1 for edge
    u-v, q at 2v, 2v + 1 for a loop at v.  Values are int64 residues,
    floats, or (object) exact numbers; a value may be zero.  ``framework``
    is the framework the rows were built from; the exact rank reads its
    prime, or its group's prime for integer or rational entries.
    """

    framework: Framework
    coo: tuple[np.ndarray, np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @property
    def num_rows(self) -> int:
        return self.framework.graph.num_rows

    @property
    def num_cols(self) -> int:
        return 2 * self.framework.graph.num_vertices

    def to_array(self) -> np.ndarray:
        rows, cols, vals = self.coo
        a = np.zeros((self.num_rows, self.num_cols))
        a[rows, cols] = vals.astype(np.float64)
        return a


def build_rigidity_matrix(fw: Framework) -> RigidityMatrix:
    """The rigidity matrix of the framework.  Raises DegenerateInputError
    for a float entry that is not finite, else for the first edge with
    coincident endpoints, else the first loop with a zero normal."""
    graph, prime = fw.graph, fw.prime
    p, q = fw._arrays
    ends = graph.edge_ends
    with np.errstate(over="ignore"):  # refused below
        d = p[ends[:, 0]] - p[ends[:, 1]]
    vals = np.concatenate([d, -d], axis=1)
    if prime is not None:
        vals %= prime
    elif vals.dtype == np.float64 and not np.isfinite(vals).all():
        raise DegenerateInputError("a rigidity-matrix entry is not finite: the placement overflows")
    coincident = np.flatnonzero((vals[:, :2] == 0).all(axis=1))
    if coincident.size:
        u, v = graph.edges[coincident[0]]
        raise DegenerateInputError(f"edge ({u}, {v}) has coincident endpoints")
    zero = np.flatnonzero((q == 0).all(axis=1))
    if zero.size:
        raise DegenerateInputError(f"loop {graph.loops[zero[0]].id} has zero normal")
    m, nl = len(ends), len(q)
    at = np.array(graph.loop_vertices, dtype=np.int64)
    rows = np.concatenate([np.repeat(np.arange(m), 4), np.repeat(np.arange(m, m + nl), 2)])
    cols = np.concatenate(
        [(2 * ends[:, [0, 0, 1, 1]] + (0, 1, 0, 1)).ravel(), (2 * at[:, None] + (0, 1)).ravel()]
    )
    return RigidityMatrix(fw, (rows, cols, np.concatenate([vals.ravel(), q.ravel()])))


@dataclass(frozen=True)
class RankReport:
    rank: int
    num_rows: int
    num_cols: int
    backend: str
    classification: str
    tolerance: float | None = None
    smallest_accepted: float | None = None
    largest_rejected: float | None = None
    trials: int = 1
    trial_ranks: tuple[int, ...] = ()
    seed: int | None = None

    @property
    def rigid(self) -> bool:
        return self.rank == self.num_cols

    @property
    def independent(self) -> bool:
        return self.rank == self.num_rows

    @property
    def isostatic(self) -> bool:
        return self.rigid and self.independent


def _classification(rank: int, rows: int, cols: int) -> str:
    rigid = rank == cols
    independent = rank == rows
    if rigid and independent:
        return "isostatic"
    if rigid:
        return "rigid-dependent"
    if independent:
        return "independent-flexible"
    return "dependent-flexible"


def _float_rank(
    svals: np.ndarray, tol: float, shape: tuple[int, int]
) -> tuple[int, float | None, float | None]:
    """Rank of a matrix of the given shape from its descending singular
    values: those above ``tol * s_max * max(shape)`` are accepted.

    Returns (rank, smallest accepted value, largest rejected value).  Raises
    RangeError for a ``tol`` that is negative or not finite, and
    DegenerateInputError when the largest value overflows.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise RangeError(f"tolerance must be finite and not negative, not {tol}")
    if svals.size == 0:
        return 0, None, None
    smax = float(svals[0])
    if not math.isfinite(smax):
        raise DegenerateInputError("the largest singular value is not finite: the placement overflows")
    if smax == 0.0:
        return 0, None, float(smax)
    cut = tol * smax * max(shape)
    accepted = svals[svals > cut]
    rejected = svals[svals <= cut]
    return (
        int(accepted.size),
        float(accepted[-1]) if accepted.size else None,
        float(rejected[0]) if rejected.size else None,
    )


def _rank_mod_dense(a: np.ndarray, prime: int, reduced: bool = False) -> list[int]:
    """Pivot columns, ascending, of a dense int64 matrix of residues modulo
    a prime below 2**31; their number is its rank.

    Gaussian elimination by rank-1 updates, column by column: each pivot
    row updates only the rows below it that are nonzero in its column, and
    only on its own nonzero columns.  With ``reduced``, each pivot row is
    scaled to 1 at its pivot and clears its column above it too, so that
    ``a`` ends in reduced echelon form.  A product of two residues stays
    below 2**62.  ``a`` is overwritten.
    """
    nrows, ncols = a.shape
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        others = (r + nz[1:])[:, None]
        if reduced:
            a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, prime) % prime
            others = np.append(np.flatnonzero(a[:r, c]), others)[:, None]
        if others.size:
            cols = c + a[r, c:].nonzero()[0]
            factor = a[others, c] * pow(int(a[r, c]), -1, prime) % prime
            a[others, cols] = (a[others, cols] - factor * a[r, cols]) % prime
        pivots.append(c)
    return pivots


def _prefix_products(x: np.ndarray, prime: int) -> np.ndarray:
    """Running products of residues modulo a prime, by doubling: after the
    step with shift k, entry i holds the product of the 2k entries ending
    at i, or of all up to i."""
    out = x.copy()
    k = 1
    while k < out.size:
        out[k:] = out[k:] * out[:-k] % prime
        k *= 2
    return out


def _inverse_mod(x: np.ndarray, prime: int) -> np.ndarray:
    """Inverses of nonzero residues, elementwise, by batch inversion: one
    inverse, of the product of all, times each entry's products of the
    entries before it and after it."""
    if not x.size:
        return x.copy()
    before = _prefix_products(x, prime)
    after = _prefix_products(x[::-1], prime)[::-1]
    out = np.full(x.size, pow(int(before[-1]), -1, prime), dtype=np.int64)
    out[1:] = out[1:] * before[:-1] % prime
    out[:-1] = out[:-1] * after[1:] % prime
    return out


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values begins in a sorted array."""
    change = np.empty(keys.size, dtype=bool)
    change[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    return np.flatnonzero(change)


def _merge_mod(rows, cols, vals, ncols: int, prime: int):
    """Entries sorted by (row, col), those at one key summed modulo the
    prime, zeros dropped.  ``vals`` must be residues."""
    key = rows * ncols + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = _run_starts(key)
    if first.size == key.size:
        vals = vals[order]
    else:
        vals = np.add.reduceat(vals[order], first) % prime
        key = key[first]
    nz = vals != 0
    key, vals = key[nz], vals[nz]
    return key // ncols, key % ncols, vals


def _pivot_owners(rows, cols, piv, shape: tuple[int, int]):
    """Per entry, the number of the pivot in its row and of the pivot in its
    column, -1 where there is none; ``piv`` holds entry indices, at most one
    per row and per column."""
    owner_r = np.full(shape[0], -1)
    owner_c = np.full(shape[1], -1)
    owner_r[rows[piv]] = owner_c[cols[piv]] = np.arange(piv.size)
    return owner_r[rows], owner_c[cols]


def _rank_mod(rows, cols, vals, shape: tuple[int, int], prime: int) -> int:
    """Rank modulo a prime below 2**31 of the sparse matrix with entries
    vals at (rows, cols); entries at one position are summed.

    Batched sparse elimination: each round scores every entry by its
    Markowitz cost (row count - 1) * (column count - 1), takes the cheapest
    entry of every row, then the cheapest of those in every column, and
    drops pivots until the pivot submatrix is diagonal, the costlier
    (ties: later) of two clashing pivots going, so the cheapest entry of
    all is always a pivot.  The pivots add to the rank, and the Schur
    complement, each pivot's column entries times its row entries over
    the pivot, is formed in one pass.  Once more than ``_DENSE_SHARE`` of
    the live rows x columns is nonzero, the rest is eliminated densely.
    Products of two residues stay below 2**62.
    """
    nrows, ncols = shape
    rows, cols, vals = _merge_mod(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=np.int64) % prime,
        ncols,
        prime,
    )
    rank = 0
    while vals.size:
        nnz = vals.size
        starts = _run_starts(rows)
        row_count = np.append(starts[1:], nnz) - starts
        col_count = np.bincount(cols, minlength=ncols)
        live_cols = np.count_nonzero(col_count)
        if nnz > _DENSE_SHARE * starts.size * live_cols:
            core = np.zeros((starts.size, live_cols), dtype=np.int64)
            col_at = np.cumsum(col_count > 0) - 1
            core[np.repeat(np.arange(starts.size), row_count), col_at[cols]] = vals
            return rank + len(_rank_mod_dense(core, prime))

        # cost, made unique by the position: (score, position) in one int
        score = np.repeat(row_count - 1, row_count) * (col_count[cols] - 1)
        cost = score * nnz + np.arange(nnz)
        best = np.sort(np.minimum.reduceat(cost, starts)) % nnz  # per row
        _, first = np.unique(cols[best], return_index=True)
        piv = np.sort(best[first])  # entry indices, in row order
        a, b = _pivot_owners(rows, cols, piv, shape)
        clash = (a >= 0) & (b >= 0) & (a != b)
        if clash.any():
            a, b = a[clash], b[clash]
            worse = cost[piv]
            keep = np.ones(piv.size, dtype=bool)
            keep[np.where(worse[a] > worse[b], a, b)] = False
            piv = piv[keep]
            a, b = _pivot_owners(rows, cols, piv, shape)
        rank += piv.size

        in_r, in_c = a >= 0, b >= 0
        rest = ~(in_r | in_c)
        right = in_r & ~in_c  # pivot rows, sorted by pivot
        below = in_c & ~in_r
        u_count = np.bincount(a[right], minlength=piv.size)
        u_start = np.cumsum(u_count) - u_count
        u_cols, u_vals = cols[right], vals[right]
        l_piv = b[below]
        used = np.zeros(piv.size, dtype=bool)
        used[l_piv] = True
        used &= u_count > 0
        inv = np.zeros(piv.size, dtype=np.int64)
        inv[used] = _inverse_mod(vals[piv[used]], prime)
        l_row = rows[below]
        l_val = (prime - vals[below]) * inv[l_piv] % prime  # -(entry / pivot)
        # one product per entry below a pivot and entry right of it
        reps = u_count[l_piv]
        each = np.repeat(np.arange(l_piv.size), reps)
        u_at = (u_start[l_piv] - np.cumsum(reps) + reps)[each] + np.arange(each.size)
        rows, cols, vals = _merge_mod(
            np.concatenate([rows[rest], l_row[each]]),
            np.concatenate([cols[rest], u_cols[u_at]]),
            np.concatenate([vals[rest], l_val[each] * u_vals[u_at] % prime]),
            ncols,
            prime,
        )
    return rank


def _lift(primes: list[int], residues: np.ndarray) -> list[Fraction] | None:
    """Per column of ``residues`` (one row per prime), the fraction n / e
    congruent to it modulo every prime with |n| and e at most sqrt(M / 2),
    M the product of the primes: CRT, then rational reconstruction by the
    extended Euclidean algorithm.  None when a column has no such fraction.
    """
    m, x = primes[0], residues[0].astype(object)
    for p, y in zip(primes[1:], residues[1:]):
        x = x + m * ((y - x % p) * pow(m, -1, p) % p)
        m *= p
    bound = math.isqrt(m // 2)
    out = []
    for a in x.tolist():
        r0, r1, s0, s1 = m, a, 0, 1  # r_k = s_k * a modulo m
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if not 0 < abs(s1) <= bound:
            return None
        out.append(Fraction(r1, s1))
    return out


def _kernel(rows, cols, ints, shape: tuple[int, int]) -> list[dict[int, Fraction]]:
    """The nullspace over the rationals of the integer matrix with entries
    ``ints`` (Python ints) at (rows, cols): per free column f, the vector
    {column: value} that is 1 at f, 0 at the other free columns, and
    nonzero only at pivot columns before f (see the module docstring).

    A prime with fewer pivots than another, or later ones, is dropped.  The
    checked vectors prove that the pivots modulo p are those over the
    rationals: each spans its free column by the columns before it, and no
    prime's rank exceeds the rank over the rationals.
    """
    primes = (p for p in range(2**31 - 1, 2, -2) if _is_prime(p))
    by_col: dict[int, list[tuple[int, int]]] = {}
    for i, c, a in zip(rows.tolist(), cols.tolist(), ints.tolist()):
        by_col.setdefault(c, []).append((i, a))
    best, kernels, want = None, [], 2
    while True:
        while len(kernels) < want:
            p = next(primes)
            a = np.zeros(shape, dtype=np.int64)
            a[rows, cols] = ints % p
            pivots = _rank_mod_dense(a, p, reduced=True)
            if best is None or (-len(pivots), pivots) < (-len(best), best):
                best, kernels = pivots, []
                free = sorted(set(range(shape[1])) - set(best))
            if pivots == best:
                kernels.append((p, -a[: len(best)][:, free] % p))
        stack = np.array([k for _, k in kernels])
        at, j = np.nonzero(stack.any(axis=0))
        values = _lift([p for p, _ in kernels], stack[:, at, j])
        if values is not None:
            vectors = [{f: Fraction(1)} for f in free]
            for i, k, x in zip(at.tolist(), j.tolist(), values):
                vectors[k][best[i]] = x
            if not any(any(_times(by_col, vec).values()) for vec in vectors):
                return vectors
        want *= 2


def _times(by_col: dict, vec: dict) -> dict:
    """The rows {row: value} of a sparse matrix, given as {column: [(row,
    entry)]}, times a sparse vector {column: value}, exactly."""
    out: dict = {}
    for c, x in vec.items():
        for i, a in by_col.get(c, ()):
            out[i] = out.get(i, 0) + a * x
    return out


def _given(matrix: RigidityMatrix, full: int) -> tuple[int, list[dict[int, Fraction]]]:
    """Rank over the rationals of integer or rational entries, and their
    kernel (``_kernel``).  The entries, scaled to integers by the lcm of
    their denominators, are ranked modulo the group's prime first; a rank
    of ``full`` there is the rank, with no kernel taken."""
    rows, cols, vals = matrix.coo
    den = math.lcm(*(x.denominator for x in vals.tolist()))
    ints = np.array([x.numerator * (den // x.denominator) for x in vals.tolist()], dtype=object)
    prime = matrix.framework.graph.group.prime_field.prime
    shape = (matrix.num_rows, matrix.num_cols)
    r = _rank_mod(rows, cols, ints % prime, shape, prime)
    if r == full:
        return r, []
    kernel = _kernel(rows, cols, ints, shape)
    return shape[1] - len(kernel), kernel


def _engine(fw: Framework, backend: str | None) -> str:
    """The backend that ranks the framework's entries: ``backend``, by
    default ``"exact"`` for integer, rational or residue coordinates and
    ``"float"`` for floats.  Raises UnsupportedBackendError for another
    name, for ``"float"`` on residues and for ``"exact"`` on floats."""
    if backend is None:
        return "exact" if fw.exact else "float"
    if backend not in ("exact", "float"):
        raise UnsupportedBackendError(f"unknown backend {backend!r}")
    if backend == "float" and fw.prime is not None:
        raise UnsupportedBackendError(f"float rank needs real entries, not residues modulo {fw.prime}")
    if backend == "exact" and not fw.exact:
        raise UnsupportedBackendError(
            "the exact backend needs integer, rational or residue entries, not floats"
        )
    return backend


def rank(
    matrix: RigidityMatrix, backend: str | None = None, tol: float = DEFAULT_TOL
) -> RankReport:
    """Rank of one rigidity matrix, by default ``"exact"`` unless the
    coordinates are floats (``_engine`` picks and checks the backend).

    ``"float"`` cuts the singular values of one dense SVD of real entries.
    ``"exact"`` eliminates residues modulo their prime, and integer or
    rational entries as the module docstring says.  Raises RangeError for
    a float ``tol`` that is negative or not finite.
    """
    prime = matrix.framework.prime
    shape = (matrix.num_rows, matrix.num_cols)
    backend = _engine(matrix.framework, backend)
    cut = {}
    if backend == "float":
        svals = np.linalg.svd(matrix.to_array(), compute_uv=False)
        r, small, large = _float_rank(svals, tol, shape)
        cut = {"tolerance": tol, "smallest_accepted": small, "largest_rejected": large}
    elif prime is not None:
        r = _rank_mod(*matrix.coo, shape, prime)
    else:
        r = _given(matrix, min(shape))[0]
    return RankReport(r, *shape, backend, _classification(r, *shape), trial_ranks=(r,), **cut)


def classify(
    graph: SymmetricGraph, trials: int = DEFAULT_TRIALS, seed: int = 0
) -> RankReport:
    """Best exact rank over up to ``trials`` residue placements, sampled
    over the group's prime field (see the module docstring).

    Every sampled rank bounds the generic rank from below, so the maximum
    over trials is reported and drives the classification.  A trial whose
    rank reaches min(rows, 2|V|) ends the search, as no rank is higher.
    ``trial_ranks`` lists the trials that were run.
    """
    if trials < 1:
        raise RangeError("trials must be positive")
    best: RankReport | None = None
    trial_ranks = []
    for t in range(trials):
        fw = sample_symmetric_placement(graph, seed=seed + t, modular=True)
        rep = rank(build_rigidity_matrix(fw))
        trial_ranks.append(rep.rank)
        if best is None or rep.rank > best.rank:
            best = rep
        if rep.rank == min(rep.num_rows, rep.num_cols):
            break
    return replace(best, trials=trials, trial_ranks=tuple(trial_ranks), seed=seed)


@dataclass(frozen=True)
class MotionReport:
    """Basis of the infinitesimal motion space (velocity per vertex)."""

    dimension: int
    basis: tuple[tuple[Pair, ...], ...]
    backend: str
    residual: float


def motions(
    fw: Framework, backend: str | None = None, tol: float = DEFAULT_TOL
) -> MotionReport:
    """Nullspace of the rigidity matrix as per-vertex velocities, with the
    backend that ``rank`` would use (``_engine``).

    ``"float"`` takes the right singular vectors past the float rank's cut
    (see ``rank``); ``"exact"`` gives the rational basis that is the
    identity on the free columns, lifted from residues (see ``_kernel``).
    """
    if fw.prime is not None:
        raise UnsupportedBackendError(
            f"motions need real coordinates, not residues modulo {fw.prime}"
        )
    backend = _engine(fw, backend)
    matrix = build_rigidity_matrix(fw)
    n = fw.graph.num_vertices
    if backend == "exact":
        zero = Fraction(0)
        basis = tuple(
            tuple((vec.get(2 * i, zero), vec.get(2 * i + 1, zero)) for i in range(n))
            for vec in _given(matrix, matrix.num_cols)[1]
        )
        return MotionReport(len(basis), basis, "exact", 0.0)
    a = matrix.to_array()
    _, svals, vh = np.linalg.svd(a)
    vecs = vh[_float_rank(svals, tol, a.shape)[0] :]
    basis = tuple(
        tuple((float(v[2 * i]), float(v[2 * i + 1])) for i in range(n))
        for v in vecs
    )
    residual = 0.0
    if matrix.num_rows and len(basis):
        residual = float(np.max(np.abs(a @ np.asarray(vecs).T)))
    return MotionReport(len(basis), basis, "float", residual)


__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_SCALE",
    "DEFAULT_TRIALS",
    "Framework",
    "RigidityMatrix",
    "RankReport",
    "MotionReport",
    "sample_symmetric_placement",
    "check_framework",
    "build_rigidity_matrix",
    "rank",
    "classify",
    "motions",
]
