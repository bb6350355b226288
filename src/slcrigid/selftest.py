"""Randomized cross-validation of the deciders against each other.

For each requested group a batch of random tight graphs is generated by
extension moves and pushed through every pipeline stage: the pebble and
subset sparsity deciders must agree, the graph must come out tight, the
characters must match, sampled placements must have full rank, and (for
groups where decomposition is certified: cyclic of order 2 or odd) the
graph must decompose back to a base with an exactly verifiable replay.
A known non-tight control graph must be rejected by every stage.  Every
failing sample is dumped as a graph document under the failure directory,
named <seed>-<index>.json inside a per-group folder.

All randomness is derived from one seed; output lines are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .document import serialize_graph
from .errors import RangeError, ReductionDeadEnd, SlcrigidError
from .henneberg import (
    certified_group,
    decompose,
    default_bases,
    generate_random,
    verify_decomposition,
)
from .realize import build_rigidity_matrix, classify, rank, sample_symmetric_placement
from .sparsity import pebble_check, subset_audit
from .symcheck import character_vectors, check_tight
from .symgraph import GroupSpec, Loop, SymmetricGraph

DEFAULT_GROUPS = ("c1", "c2", "c3", "c4", "c5", "c6")
_ORACLE_MAX_VERTICES = 18


@dataclass(frozen=True)
class SelftestResult:
    ok: bool
    checks: int
    failures: int
    lines: tuple[str, ...]


def negative_control() -> SymmetricGraph:
    """A sparse-and-tight half-turn graph that fails the fixed counts.

    One fixed vertex carrying a fixed loop and a fixed edge opposite it:
    the half-turn counts are (v, e, l) = (1, 1, 1), not an allowed branch,
    and the characters disagree, so the graph is dependent in every
    symmetric placement despite having 2|V| rows.
    """
    return SymmetricGraph(
        GroupSpec("cyclic", 2),
        3,
        ((0, 1), (0, 2), (1, 2)),
        (Loop(0, 0), Loop(1, 1), Loop(2, 2)),
        rotation_vertex_perm=(0, 2, 1),
        rotation_loop_perm={0: 0, 1: 2, 2: 1},
    )


def _check_sample(graph, sample_seed: int, certified: bool) -> list[str]:
    """Run every stage on one generated graph; returns failure messages."""
    bad: list[str] = []
    loops = [l.vertex for l in graph.loops]

    tight = check_tight(graph)
    if not tight.tight:
        bad.append("generated graph is not tight under the pebble decider")
    if graph.num_vertices <= _ORACLE_MAX_VERTICES:
        audit = subset_audit(graph.num_vertices, graph.edges, loops)
        if audit.verdict != tight.sparsity.verdict:
            bad.append(
                f"sparsity deciders disagree: pebble says"
                f" {tight.sparsity.verdict}, subset says {audit.verdict}"
            )
    if not tight.character.equal:
        bad.append("characters disagree on a generated tight graph")

    report = classify(graph, trials=3, seed=sample_seed)
    if report.classification != "isostatic":
        bad.append(
            f"sampled rank {report.rank} of {report.num_rows}x"
            f"{report.num_cols} is not isostatic"
        )
    if graph.group.exact_supported:
        fw = sample_symmetric_placement(graph, seed=sample_seed)
        exact = rank(build_rigidity_matrix(fw), backend="exact")
        flt = rank(build_rigidity_matrix(fw), backend="float")
        if exact.rank != flt.rank:
            bad.append(
                f"exact rank {exact.rank} and float rank {flt.rank} disagree"
            )

    if certified:
        try:
            dec = decompose(graph)
        except ReductionDeadEnd as err:
            bad.append(f"decomposition dead end: {err}")
        else:
            if not verify_decomposition(graph, dec):
                bad.append("decomposition replay does not reproduce the graph")
    return bad


def _oracle_block(seed: int, count: int) -> tuple[int, int]:
    """Compare the deciders on random unstructured graphs; (checks, fails)."""
    rng = random.Random(seed)
    fails = 0
    for _ in range(count):
        n = rng.randint(1, 7)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(possible, rng.randint(0, len(possible)))
        loops = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))]
        a = pebble_check(n, edges, loops)
        b = subset_audit(n, edges, loops)
        if a.verdict != b.verdict:
            fails += 1
    return count, fails


def run_selftest(
    groups=DEFAULT_GROUPS,
    samples: int = 10,
    max_steps: int = 6,
    seed: int = 0,
    dump_dir: str | Path = "failures",
) -> SelftestResult:
    if max_steps < 1:
        raise RangeError(f"max_steps must be positive, not {max_steps}")
    if samples < 0:
        raise RangeError(f"samples must be nonnegative, not {samples}")
    lines: list[str] = []
    checks = failures = 0
    dump_root = Path(dump_dir)

    for name in groups:
        group = GroupSpec.from_name(name)
        if not default_bases(group):
            lines.append(f"{name}: skipped (no construction bases for this group)")
            continue
        certified = certified_group(group)
        good = 0

        for i in range(samples):
            sample_seed = seed * 1000003 + i
            steps = random.Random(sample_seed).randint(1, max_steps)
            graph = generate_random(group, steps=steps, seed=sample_seed).graph
            bad = _check_sample(graph, sample_seed, certified)
            checks += 1
            if bad:
                failures += 1
                path = dump_root / name / f"{seed}-{i}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(serialize_graph(graph))
                for msg in bad:
                    lines.append(f"{name} sample {i}: FAIL: {msg} (dumped {path})")
            else:
                good += 1
        note = (
            ""
            if certified
            else " (decomposition not certified for this group: replay skipped)"
        )
        lines.append(f"{name}: {good}/{samples} samples ok{note}")

    oracle_checks, oracle_fails = _oracle_block(seed + 1, max(20, samples * 4))
    checks += oracle_checks
    failures += oracle_fails
    lines.append(
        f"oracle: pebble and subset deciders agree on"
        f" {oracle_checks - oracle_fails}/{oracle_checks} random graphs"
    )

    control = negative_control()
    checks += 1
    control_ok = True
    report = check_tight(control)
    if report.tight or report.fixed_count.passed or report.character.equal:
        control_ok = False
    if not report.sparsity.tight:
        control_ok = False  # the control must fail for the symmetry reason only
    try:
        if classify(control, trials=3, seed=seed).classification == "isostatic":
            control_ok = False
    except SlcrigidError:
        control_ok = False
    if control_ok:
        lines.append("negative control: correctly rejected at every stage")
    else:
        failures += 1
        lines.append("negative control: FAIL (a stage accepted a non-tight graph)")

    lines.append(f"selftest: {checks} checks, {failures} failures")
    return SelftestResult(failures == 0, checks, failures, tuple(lines))


__all__ = ["DEFAULT_GROUPS", "SelftestResult", "negative_control", "run_selftest"]
