"""Symmetry-compatible tightness: fixed-count conditions and characters.

A symmetric looped graph can satisfy the plain sparsity counts and still be
forced dependent by its symmetry.  Two extra certificates close the gap.

Fixed counts.  Writing v_g, e_g, l_g for the numbers of vertices, edges and
loops fixed by a group element g, a tight graph compatible with the symmetry
must satisfy, per element:

* rotations of order other than 2 and 4: v_g = e_g = l_g = 0;
* the half-turn (jointly with the quarter-turns when present): either all
  these counts vanish, or v_2 = 1, e_2 = 0, l_2 = 2 (and with quarter-turns
  additionally v_4 = 1, e_4 = 0, l_4 = 0);
* every reflection s: e_s + l_{s,+} = l_{s,-}, splitting mirror-fixed loops
  by the sign of the loop direction under the mirror.

Characters.  The row and column representations of the rigidity matrix must
have equal characters.  Per element the row trace is integral: edges fixed
count +1, loops fixed count -1 under the half-turn and their stored sign
under a mirror.  The column trace is 2 cos(angle) per fixed vertex, which is
rational only for rotation orders 1, 2, 3, 4, 6; for other orders equality
holds exactly iff both sides vanish.

``check_tight`` bundles sparsity, fixed counts and characters; the character
identity is implied by the first two and reported as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from .errors import ActionError
from .sparsity import SparsityReport, pebble_check, subset_audit
from .symgraph import (
    GroupElement,
    SymmetricGraph,
    element_tables,
    fixed_counts,
    mirror_sign,
    stabilizers,
    validate_action,
)

# 2 cos(2*pi/m) for the orders where it is rational.
_RATIONAL_TWO_COS = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}


def _two_cos_exact(rot: int, order: int) -> int | None:
    """2 cos(2 pi rot / order) as an integer, or None when irrational."""
    m = order // gcd(rot, order)
    return _RATIONAL_TWO_COS.get(m)


@dataclass(frozen=True)
class CharacterReport:
    """Per-element traces of the row and column representations."""

    labels: tuple[str, ...]
    chi_rows: tuple[int, ...]
    chi_cols: tuple[float, ...]
    equal_per_element: tuple[bool, ...]
    deltas: tuple[float, ...]

    @property
    def equal(self) -> bool:
        return all(self.equal_per_element)

    def by_label(self, label: str) -> tuple[int, float, bool]:
        i = self.labels.index(label)
        return self.chi_rows[i], self.chi_cols[i], self.equal_per_element[i]


def character_vectors(graph: SymmetricGraph) -> CharacterReport:
    """Exact row/column characters with per-element equality flags.

    Row traces are computed over the integers.  Column equality is decided
    exactly: reflections trace to 0, rational rotation angles compare as
    integers, irrational ones force both sides to vanish.
    """
    group = graph.group
    tables = element_tables(graph)
    lstab = (
        dict(zip(graph.loop_ids, stabilizers(graph, tables, "loop")))
        if group.has_reflection
        else {}
    )
    labels, rows, cols, equal, deltas = [], [], [], [], []
    for elem in group.elements():
        vperm, lmap = tables[elem]
        e_fix = sum(
            1
            for (u, v) in graph.edges
            if {vperm[u], vperm[v]} == {u, v}
        )
        sign_sum = 0
        for loop in graph.loops:
            if lmap[loop.id] != loop.id:
                continue
            if elem == GroupElement(0, False):
                sign_sum += 1
            elif elem.ref:
                sign_sum += mirror_sign(group, loop, lstab[loop.id], elem)
            elif group.element_order(elem) == 2:
                sign_sum -= 1
            else:
                raise ActionError(
                    f"loop {loop.id} fixed by {group.element_label(elem)},"
                    " which has no fixed direction"
                )
        chi_r = e_fix + sign_sum

        if elem.ref:
            chi_c = 0.0
            ok = chi_r == 0
        else:
            v_fix = sum(1 for v in range(graph.num_vertices) if vperm[v] == v)
            angle = 2.0 * math.pi * elem.rot / group.rotation_order
            chi_c = 2.0 * math.cos(angle) * v_fix
            tc = _two_cos_exact(elem.rot, group.rotation_order)
            if tc is None:
                ok = chi_r == 0 and v_fix == 0
            else:
                ok = chi_r == tc * v_fix

        labels.append(group.element_label(elem))
        rows.append(chi_r)
        cols.append(chi_c)
        equal.append(ok)
        deltas.append(chi_r - chi_c)
    return CharacterReport(
        tuple(labels), tuple(rows), tuple(cols), tuple(equal), tuple(deltas)
    )


@dataclass(frozen=True)
class Condition:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FixedCountReport:
    conditions: tuple[Condition, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def first_failure(self) -> str | None:
        for c in self.conditions:
            if not c.passed:
                return c.name
        return None


def fixed_count_check(graph: SymmetricGraph) -> FixedCountReport:
    """Evaluate every per-element fixed-count condition for tightness."""
    group = graph.group
    fc = fixed_counts(graph)
    by_elem = {c.element: c for c in fc.per_element}
    conditions: list[Condition] = []

    n_rot = group.rotation_order
    for elem in group.elements():
        if elem.ref or elem == GroupElement(0, False):
            continue
        order = group.element_order(elem)
        if order in (2, 4):
            continue  # handled jointly below
        c = by_elem[elem]
        conditions.append(
            Condition(
                f"{c.label}: no fixed vertices, edges or loops",
                c.vertices == c.edges == c.loops == 0,
                f"v={c.vertices}, e={c.edges}, l={c.loops}",
            )
        )

    if n_rot % 2 == 0:
        half = by_elem[group.half_turn()]
        if n_rot % 4 == 0:
            quarter = by_elem[GroupElement(n_rot // 4, False)]
            all_zero = (
                half.vertices == half.edges == half.loops == 0
                and quarter.vertices == quarter.edges == quarter.loops == 0
            )
            pinned = (
                (half.vertices, half.edges, half.loops) == (1, 0, 2)
                and (quarter.vertices, quarter.edges, quarter.loops) == (1, 0, 0)
            )
            conditions.append(
                Condition(
                    "half-turn and quarter-turn counts",
                    all_zero or pinned,
                    f"half v={half.vertices}, e={half.edges}, l={half.loops};"
                    f" quarter v={quarter.vertices}, e={quarter.edges},"
                    f" l={quarter.loops}",
                )
            )
        else:
            ok = (half.vertices, half.edges, half.loops) in ((0, 0, 0), (1, 0, 2))
            conditions.append(
                Condition(
                    "half-turn counts",
                    ok,
                    f"v={half.vertices}, e={half.edges}, l={half.loops}",
                )
            )

    for elem in group.elements():
        if not elem.ref:
            continue
        c = by_elem[elem]
        conditions.append(
            Condition(
                f"{c.label}: fixed edges + plus loops = minus loops",
                c.edges + c.loops_plus == c.loops_minus,
                f"e={c.edges}, l+={c.loops_plus}, l-={c.loops_minus}",
            )
        )

    return FixedCountReport(tuple(conditions))


@dataclass(frozen=True)
class TightReport:
    sparsity: SparsityReport
    fixed_count: FixedCountReport
    character: CharacterReport

    @property
    def tight(self) -> bool:
        return self.sparsity.tight and self.fixed_count.passed


def check_tight(graph: SymmetricGraph, method: str = "pebble") -> TightReport:
    """Full symmetry-compatible tightness check.

    Validates the group action, runs the requested sparsity decider, the
    fixed-count conditions and the character comparison.  The overall
    verdict is sparsity tight plus all fixed-count conditions.
    """
    report = validate_action(graph)
    if not report.ok:
        raise ActionError("; ".join(report.violations))
    loops = [lp.vertex for lp in graph.loops]
    if method == "pebble":
        sp = pebble_check(graph.num_vertices, graph.edges, loops)
    elif method == "subset":
        sp = subset_audit(graph.num_vertices, graph.edges, loops)
    else:
        raise ActionError(f"unknown sparsity method {method!r}")
    return TightReport(sp, fixed_count_check(graph), character_vectors(graph))


def is_tight(graph: SymmetricGraph, method: str = "pebble") -> bool:
    return check_tight(graph, method).tight


# tightness here is always relative to the acting group
is_gamma_tight = is_tight


__all__ = [
    "CharacterReport",
    "Condition",
    "FixedCountReport",
    "TightReport",
    "character_vectors",
    "fixed_count_check",
    "check_tight",
    "is_tight",
    "is_gamma_tight",
]
