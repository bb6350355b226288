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
sign label selects.  For groups whose matrices are integral (rotation order
1, 2 or 4) the sample has integer coordinates and an exact rank over the
rationals is available.  A sampled rank is a lower bound on the generic
rank, so ``classify`` takes the best of several trials.

The float rank splits the matrix by the characters of one cyclic subgroup
H = <h> of order k: h is the rotation generator when the group has one, else
the mirror, else the identity (one block, the whole matrix).  A symmetric
framework's matrix commutes with H's action on rows and columns, so in a
basis of H-eigenvectors it is block diagonal, with block j on the vectors
that h multiplies by w^j, w = exp(2 pi i / k).  Block j has one row per
H-orbit of rows and, per vertex orbit of size d, an orthonormal basis of
{x : tau_h^d x = w^(jd) x} scaled by 1/sqrt(d) as its columns; a row at
vertex h^s.rep contributes sqrt(|row orbit|) * w^(-js) * r^T tau_h^s B.
Blocks j and k - j are complex conjugates, so only j <= k/2 is decomposed.
The union of the blocks' singular values is the dense matrix's spectrum,
and one cut, ``tol * s_max * max(rows, 2|V|)``, is applied to it as a
whole (Schulze and Tanigawa, SIAM J. Discrete Math. 2015, split the matrix
the same way into orbit matrices).  The split is only taken when the rows
are symmetric under H, within ``tol`` times the largest entry; any other
matrix (a given placement off symmetry, an invalid stored action) is split
under the trivial group, one block that is the whole matrix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ActionError,
    DegenerateInputError,
    RangeError,
    UnsupportedBackendError,
)
from .symgraph import (
    GroupElement,
    SymmetricGraph,
    element_tables,
    mirror_sign,
    stabilizers,
    validate_action,
)

DEFAULT_TOL = 1e-9
DEFAULT_SCALE = 10 ** 6
DEFAULT_TRIALS = 3
_MAX_RESAMPLES = 200

Pair = tuple  # (x, y) of int | Fraction | float


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class Framework:
    """A symmetric graph together with vertex points and loop normals.

    ``q`` is aligned with ``graph.loops`` (ascending loop id).
    """

    graph: SymmetricGraph
    p: tuple[Pair, ...]
    q: tuple[Pair, ...]

    def __post_init__(self) -> None:
        if len(self.p) != self.graph.num_vertices:
            raise RangeError("placement has wrong number of vertex points")
        if len(self.q) != len(self.graph.loops):
            raise RangeError("placement has wrong number of loop normals")
        object.__setattr__(self, "p", tuple(tuple(pt) for pt in self.p))
        object.__setattr__(self, "q", tuple(tuple(v) for v in self.q))
        for pt in self.p + self.q:
            if len(pt) != 2:
                raise RangeError("points and normals must be coordinate pairs")

    @property
    def exact(self) -> bool:
        return all(_is_exact(c) for pt in self.p + self.q for c in pt)

    def q_of(self, loop_id: int) -> Pair:
        for loop, vec in zip(self.graph.loops, self.q):
            if loop.id == loop_id:
                return vec
        raise RangeError(f"no loop with id {loop_id}")


def _tau_rows(graph: SymmetricGraph, exact: bool):
    """Symmetry matrix per element, as row tuples of plain numbers."""
    group = graph.group
    mats = {}
    for elem in group.elements():
        if exact:
            mats[elem] = group.tau_exact(elem)
        else:
            m = group.tau(elem)
            mats[elem] = ((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1]))
    return mats


def _apply(mat, vec: Pair) -> Pair:
    (a, b), (c, d) = mat
    x, y = vec
    return (a * x + b * y, c * x + d * y)


def _perp(vec: Pair) -> Pair:
    x, y = vec
    return (-y, x)


def _close(a: Pair, b: Pair, exact: bool, span: float) -> bool:
    if exact:
        return a == b
    return max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= 1e-7 * max(1.0, span)


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


def sample_symmetric_placement(
    graph: SymmetricGraph, seed: int = 0, scale: int = DEFAULT_SCALE
) -> Framework:
    """Random symmetric framework on the graph; deterministic in the seed.

    Coordinates are drawn as integers in [-scale, scale], so frameworks for
    groups with integral matrices are exact.  Raises DegenerateInputError
    when no injective symmetric placement exists (e.g. two rotation-fixed
    vertices) or when resampling cannot separate the points.
    """
    report = validate_action(graph)
    if not report.ok:
        raise ActionError("; ".join(report.violations))
    group = graph.group
    rng = random.Random(seed)
    exact = group.exact_supported
    tables = element_tables(graph)
    taus = _tau_rows(graph, exact)
    elements = group.elements()
    vstab = stabilizers(graph, tables, "vertex")

    rot_fixed = [
        v for v in range(graph.num_vertices) if any(not e.ref for e in vstab[v])
    ]
    if len(rot_fixed) > 1:
        raise DegenerateInputError(
            f"vertices {rot_fixed} are all rotation-fixed and would coincide"
            " at the origin"
        )

    def draw_nonzero() -> int:
        while True:
            t = rng.randint(-scale, scale)
            if t != 0:
                return t

    span = float(scale)
    eps = 1e-7 * max(1.0, span)
    placed = _Cells(eps)
    p: list[Pair | None] = [None] * graph.num_vertices
    for rep in range(graph.num_vertices):
        if p[rep] is not None:
            continue
        stab = vstab[rep]
        mirrors = [e for e in stab if e.ref]
        rotation_fixed = any(not e.ref for e in stab)
        for _ in range(_MAX_RESAMPLES):
            if rotation_fixed:
                cand: Pair = (0, 0) if exact else (0.0, 0.0)
            elif mirrors:
                d = (
                    group.mirror_direction_exact(mirrors[0])
                    if exact
                    else group.mirror_direction(mirrors[0])
                )
                t = draw_nonzero()
                cand = (d[0] * t, d[1] * t)
            else:
                cand = (draw_nonzero(), draw_nonzero())
            orbit_pts: dict[int, Pair] = {}
            for elem in elements:
                w = tables[elem][0][rep]
                if w not in orbit_pts:
                    orbit_pts[w] = _apply(taus[elem], cand)
            # the orbit's points must be apart from each other and from
            # every point placed before
            own = _Cells(eps)
            ok = True
            for a in orbit_pts.values():
                if any(
                    _close(a, b, exact, span)
                    for b in placed.around(a) + own.around(a)
                ):
                    ok = False
                    break
                own.add(a, a)
            if ok:
                for w, pt in orbit_pts.items():
                    p[w] = pt
                    placed.add(pt, pt)
                break
        else:
            raise DegenerateInputError(
                f"no injective symmetric placement found for the orbit of"
                f" vertex {rep}"
            )

    q_by_id: dict[int, Pair] = {}
    for loop, stab in zip(graph.loops, stabilizers(graph, tables, "loop")):
        if loop.id in q_by_id:
            continue
        mirrors = [e for e in stab if e.ref]
        if mirrors:
            d = (
                group.mirror_direction_exact(mirrors[0])
                if exact
                else group.mirror_direction(mirrors[0])
            )
            positive = mirror_sign(group, loop, stab, mirrors[0]) > 0
            base = d if positive else _perp(d)
            t = draw_nonzero()
            cand = (base[0] * t, base[1] * t)
        else:
            cand = (draw_nonzero(), draw_nonzero())
        for elem in elements:
            lid = tables[elem][1][loop.id]
            if lid not in q_by_id:
                q_by_id[lid] = _apply(taus[elem], cand)

    return Framework(
        graph, tuple(p), tuple(q_by_id[l.id] for l in graph.loops)
    )


def check_framework(fw: Framework, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
    """Symmetry and nondegeneracy residuals of a framework, as messages.

    Checks injectivity, nonzero loop normals, equivariance of the points,
    equivariance of the normals up to sign, and the pinned sign of every
    mirror-fixed loop.  Exact frameworks are compared exactly.
    """
    graph, group = fw.graph, fw.graph.group
    exact = fw.exact
    span = max(
        [1.0] + [abs(float(c)) for pt in fw.p + fw.q for c in pt]
    )
    eps = 0.0 if exact else tol * span
    tables = element_tables(graph)
    taus = _tau_rows(graph, exact)
    q_by_id = dict(zip(graph.loop_ids, fw.q))
    bad: list[str] = []

    def near(a: Pair, b: Pair) -> bool:
        return max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= eps

    cells = _Cells(eps)
    coincide = []
    for v, pt in enumerate(fw.p):
        coincide += [(u, v) for u in cells.around(pt) if near(fw.p[u], pt)]
        cells.add(pt, v)
    for u, v in sorted(coincide):
        bad.append(f"vertices {u} and {v} coincide")
    for loop, vec in zip(graph.loops, fw.q):
        if max(abs(vec[0]), abs(vec[1])) <= eps:
            bad.append(f"loop {loop.id} has zero normal")

    for elem in group.elements():
        if elem == group.identity():
            continue
        vp, lp = tables[elem]
        for v in range(graph.num_vertices):
            if not near(_apply(taus[elem], fw.p[v]), fw.p[vp[v]]):
                bad.append(
                    f"{group.element_label(elem)} moves vertex {v} off its image"
                )
        for loop, vec in zip(graph.loops, fw.q):
            img = _apply(taus[elem], vec)
            target = q_by_id[lp[loop.id]]
            neg = (-target[0], -target[1])
            if not (near(img, target) or near(img, neg)):
                bad.append(
                    f"{group.element_label(elem)} moves loop {loop.id} normal"
                    " off its image line"
                )

    lstab = stabilizers(graph, tables, "loop")
    for loop, vec, stab in zip(graph.loops, fw.q, lstab):
        for elem in (e for e in stab if e.ref):
            sign = mirror_sign(group, loop, stab, elem)
            img = _apply(taus[elem], vec)
            want = (sign * vec[0], sign * vec[1])
            if not near(img, want):
                bad.append(
                    f"loop {loop.id} normal is not in the"
                    f" {'+' if sign > 0 else '-'}1 eigenspace of"
                    f" {group.element_label(elem)}"
                )
    return tuple(bad)


@dataclass(frozen=True)
class RigidityMatrix:
    """Rows: edges in sorted order, then loops by id.  Columns: 2v, 2v+1.

    ``rows`` holds each row sparsely as its (vertex, 2-vector) pairs:
    (u, p_u - p_v) and (v, p_v - p_u) for edge u-v, (v, q) for a loop at v.
    ``framework`` is the framework the rows were built from; the float rank
    reads its group action.
    """

    framework: Framework
    rows: tuple[tuple[tuple[int, Pair], ...], ...]
    row_labels: tuple[str, ...]

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return 2 * self.framework.graph.num_vertices

    @property
    def exact(self) -> bool:
        return self.framework.exact

    @property
    def entries(self) -> tuple[tuple, ...]:
        """The rows as dense tuples."""
        out = []
        for row in self.rows:
            dense = [0] * self.num_cols
            for v, (x, y) in row:
                dense[2 * v], dense[2 * v + 1] = x, y
            out.append(tuple(dense))
        return tuple(out)

    def to_array(self) -> np.ndarray:
        a = np.zeros((self.num_rows, self.num_cols))
        for i, row in enumerate(self.rows):
            for v, (x, y) in row:
                a[i, 2 * v : 2 * v + 2] = (float(x), float(y))
        return a


def build_rigidity_matrix(fw: Framework) -> RigidityMatrix:
    graph = fw.graph
    rows: list[tuple] = []
    labels: list[str] = []
    for (u, v) in graph.edges:
        du = (fw.p[u][0] - fw.p[v][0], fw.p[u][1] - fw.p[v][1])
        if du == (0, 0):
            raise DegenerateInputError(f"edge ({u}, {v}) has coincident endpoints")
        rows.append(((u, du), (v, (-du[0], -du[1]))))
        labels.append(f"edge {u}-{v}")
    for loop, vec in zip(graph.loops, fw.q):
        if vec == (0, 0):
            raise DegenerateInputError(f"loop {loop.id} has zero normal")
        rows.append(((loop.vertex, vec),))
        labels.append(f"loop {loop.id}")
    return RigidityMatrix(fw, tuple(rows), tuple(labels))


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

    Returns (rank, smallest accepted value, largest rejected value).
    """
    if svals.size == 0:
        return 0, None, None
    smax = float(svals[0])
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


def _eigenbasis(tau_d: np.ndarray, lam: complex, m: int) -> np.ndarray:
    """Orthonormal basis (as columns) of {x : tau_d x = lam x}, where
    (tau_d / lam)^m = I."""
    step = tau_d / lam
    proj = sum(np.linalg.matrix_power(step, t) for t in range(m)) / m
    dim = round(float(np.trace(proj).real))
    if dim == 2:
        return np.eye(2, dtype=complex)
    if dim == 0:
        return np.zeros((2, 0), dtype=complex)
    col = proj[:, np.argmax(np.linalg.norm(proj, axis=0))]
    return (col / np.linalg.norm(col))[:, None]


def _orbits_under(matrix: RigidityMatrix, h: GroupElement, tol: float):
    """Vertex and row orbits under H = <h>, or None if the matrix is not
    symmetric under H.

    Symmetric means: every vertex orbit's size divides k = |H|, every row's
    image under h is a row at the image vertices, and the row t steps along
    each row orbit is +-(r^T tau_h^t) for its first row r, within ``tol``
    times the largest entry (t = orbit size included, so the orbit closes).
    An edge row's second pair is minus its first, so comparing first pairs
    compares rows.  Returns (k, taus, sizes, orbit, step, reps): vertex
    v = h^step[v] . (first vertex of orbit number orbit[v]), sizes[o] is the
    size of vertex orbit o, and reps lists (first row, orbit size) per row
    orbit.
    """
    graph = matrix.framework.graph
    group = graph.group
    n = graph.num_vertices
    k = group.element_order(h)
    if k == 1:
        vperm, lperm = tuple(range(n)), {l.id: l.id for l in graph.loops}
    else:
        vperm, lperm = graph.generator_perms(ref=h.ref)
    taus = [np.eye(2)]
    for _ in range(k - 1):
        taus.append(group.tau(h) @ taus[-1])

    orbit = [-1] * n
    step = [0] * n
    sizes: list[int] = []
    for v in range(n):
        if orbit[v] >= 0:
            continue
        x, s = v, 0
        while orbit[x] < 0:
            orbit[x], step[x] = len(sizes), s
            x, s = vperm[x], s + 1
        if k % s:
            return None
        sizes.append(s)

    # walk each row orbit; (row, first row of its orbit, steps) per visit
    num_edges = len(graph.edges)
    edge_row = {e: i for i, e in enumerate(graph.edges)}
    loop_row = {l.id: num_edges + i for i, l in enumerate(graph.loops)}
    seen = [False] * matrix.num_rows
    reps = []
    visits: list[tuple[int, int, int]] = []
    for i in range(matrix.num_rows):
        if seen[i]:
            continue
        verts = [v for v, _ in matrix.rows[i]]
        j, t = i, 0
        while not seen[j]:
            seen[j] = True
            visits.append((j, i, t))
            verts = [vperm[x] for x in verts]
            t += 1
            if j < num_edges:
                a, b = verts
                j = edge_row.get((a, b) if a < b else (b, a))
                if j is None:
                    return None
            else:
                j = loop_row[lperm[graph.loops[j - num_edges].id]]
                if graph.loops[j - num_edges].vertex != verts[0]:
                    return None
        if j != i:
            return None
        visits.append((i, i, t))
        reps.append((i, t))

    first = np.array(
        [[float(c) for c in row[0][1]] for row in matrix.rows], dtype=float
    ).reshape(-1, 2)
    if visits:
        at, frm, steps = np.array(visits, dtype=int).T
        want = np.einsum("nab,nb->na", np.array(taus)[steps % k], first[frm])
        off = np.minimum(
            np.abs(first[at] - want).max(axis=1), np.abs(first[at] + want).max(axis=1)
        )
        if off.max() > tol * max(1.0, float(np.abs(first).max())):
            return None
    return k, taus, sizes, orbit, step, reps


def _block_spectrum(matrix: RigidityMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Singular values of the matrix, descending, min(rows, cols) of them,
    from its character blocks under H = <h> (see the module docstring).

    A matrix that is not symmetric under H, within ``tol`` times its largest
    entry, is split under the trivial group instead: one block, the whole
    matrix.
    """
    group = matrix.framework.graph.group
    if group.rotation_order > 1:
        h = GroupElement(1, False)
    elif group.has_reflection:
        h = GroupElement(0, True)
    else:
        h = group.identity()
    split = _orbits_under(matrix, h, tol)
    if split is None:
        split = _orbits_under(matrix, group.identity(), tol)
    k, taus, sizes, orbit, step, reps = split
    phase = np.exp(-2j * np.pi * np.arange(k) / k)  # phase[s] = w^-s

    # one row per H-orbit of rows, from its first row, scaled by
    # sqrt(orbit size); each stored pair contributes r^T tau_h^s there
    num_orbits = len(reps)
    e_row, e_orbit, e_step, e_vec = [], [], [], []
    for o, (i, size) in enumerate(reps):
        for v, vec in matrix.rows[i]:
            e_row.append(o)
            e_orbit.append(orbit[v])
            e_step.append(step[v])
            e_vec.append(math.sqrt(size) * np.array(vec, dtype=float) @ taus[step[v]])
    e_row = np.array(e_row, dtype=int)
    e_orbit = np.array(e_orbit, dtype=int)
    e_step = np.array(e_step, dtype=int)
    e_vec = np.array(e_vec, dtype=float).reshape(-1, 2)

    svals = []
    for j in range(k // 2 + 1):
        real = j == 0 or 2 * j == k
        # per vertex orbit: basis padded to two columns, padding sent to a
        # spare last column of the block
        bases = np.zeros((len(sizes), 2, 2), dtype=complex)
        cols = np.zeros((len(sizes), 2), dtype=int)
        width = 0
        basis_cache: dict[int, np.ndarray] = {}
        for o, d in enumerate(sizes):
            if d not in basis_cache:
                lam = np.exp(2j * np.pi * j * d / k)
                basis_cache[d] = _eigenbasis(taus[d % k], lam, k // d) / math.sqrt(d)
            basis = basis_cache[d]
            c = basis.shape[1]
            bases[o, :, :c] = basis
            cols[o] = [width, width + 1]
            cols[o, c:] = -1
            width += c
        cols[cols < 0] = width
        vals = phase[(j * e_step) % k][:, None] * np.einsum(
            "ei,eic->ec", e_vec, bases[e_orbit]
        )
        block = np.zeros((num_orbits, width + 1), dtype=complex)
        np.add.at(block, (e_row[:, None], cols[e_orbit]), vals)
        block = block[:, :width]
        if block.size == 0:
            continue
        sv = np.linalg.svd(block.real if real else block, compute_uv=False)
        svals += [sv] if real else [sv, sv]

    # the dense SVD's count; any surplus is the noise of zero rows
    count = min(matrix.num_rows, matrix.num_cols)
    out = np.sort(np.concatenate(svals))[::-1] if svals else np.zeros(0)
    return np.concatenate([out[:count], np.zeros(max(0, count - out.size))])


def _rows_as_integers(entries: Iterable[Sequence]) -> list[list[int]]:
    out = []
    for row in entries:
        fracs = [Fraction(x) for x in row]
        den = 1
        for f in fracs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        out.append([int(f * den) for f in fracs])
    return out


def _int_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    prev = 1
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r


def rank(
    matrix: RigidityMatrix, backend: str = "float", tol: float = DEFAULT_TOL
) -> RankReport:
    """Rank of one rigidity matrix with the requested backend."""
    if backend == "float":
        r, small, large = _float_rank(
            _block_spectrum(matrix, tol), tol, (matrix.num_rows, matrix.num_cols)
        )
        return RankReport(
            r,
            matrix.num_rows,
            matrix.num_cols,
            "float",
            _classification(r, matrix.num_rows, matrix.num_cols),
            tolerance=tol,
            smallest_accepted=small,
            largest_rejected=large,
            trial_ranks=(r,),
        )
    if backend == "exact":
        if not matrix.exact:
            raise UnsupportedBackendError(
                "exact rank needs integer or rational entries; the group's"
                " symmetry matrices must be integral (rotation order 1, 2 or 4)"
            )
        r = _int_rank(_rows_as_integers(matrix.entries))
        return RankReport(
            r,
            matrix.num_rows,
            matrix.num_cols,
            "exact",
            _classification(r, matrix.num_rows, matrix.num_cols),
            trial_ranks=(r,),
        )
    raise UnsupportedBackendError(f"unknown backend {backend!r}")


def classify(
    graph: SymmetricGraph,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    backend: str = "float",
    tol: float = DEFAULT_TOL,
    scale: int = DEFAULT_SCALE,
) -> RankReport:
    """Best rank over several sampled placements.

    Every sampled rank bounds the generic rank from below, so the maximum
    over trials is reported and drives the classification.
    """
    if trials < 1:
        raise RangeError("trials must be positive")
    best: RankReport | None = None
    trial_ranks = []
    for t in range(trials):
        fw = sample_symmetric_placement(graph, seed=seed + t, scale=scale)
        rep = rank(build_rigidity_matrix(fw), backend=backend, tol=tol)
        trial_ranks.append(rep.rank)
        if best is None or rep.rank > best.rank:
            best = rep
    return replace(best, trials=trials, trial_ranks=tuple(trial_ranks), seed=seed)


@dataclass(frozen=True)
class MotionReport:
    """Basis of the infinitesimal motion space (velocity per vertex)."""

    dimension: int
    basis: tuple[tuple[Pair, ...], ...]
    backend: str
    residual: float


def _exact_nullspace(entries, ncols: int) -> list[list[Fraction]]:
    m = [[Fraction(x) for x in row] for row in entries]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -m[i][free]
        basis.append(vec)
    return basis


def motions(
    fw: Framework, backend: str = "float", tol: float = DEFAULT_TOL
) -> MotionReport:
    """Nullspace of the rigidity matrix as per-vertex velocities."""
    matrix = build_rigidity_matrix(fw)
    n = fw.graph.num_vertices
    if backend == "exact":
        if not matrix.exact:
            raise UnsupportedBackendError(
                "exact motions need integer or rational entries"
            )
        vecs = _exact_nullspace(matrix.entries, matrix.num_cols)
        basis = tuple(
            tuple((v[2 * i], v[2 * i + 1]) for i in range(n)) for v in vecs
        )
        return MotionReport(len(basis), basis, "exact", 0.0)
    if backend != "float":
        raise UnsupportedBackendError(f"unknown backend {backend!r}")
    a = matrix.to_array()
    if matrix.num_rows == 0:
        vecs = np.eye(matrix.num_cols)
    else:
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
