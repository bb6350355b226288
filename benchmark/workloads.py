"""The two workloads: their inputs, one operation each, and its checks.

Every workload is a fixed list of cases run in whole passes.  ``cases``
makes the list from the seed (set-up), ``expect`` computes what each case
must give without relying on the program (after set-up, untimed), ``run``
is the timed operation and ``check`` compares its outputs.

Operations look up slcrigid functions through their modules at call time
(``symcheck.check_tight``, not a name imported here), so the wrappers of a
traced run see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any

from slcrigid import document, henneberg, realize, symcheck

import oracle

TRIALS = 3  # classify's default number of sampled placements


@dataclass
class Case:
    label: str
    doc: dict  # the graph document, the benchmark's reference copy
    text: str  # the same document as the program receives it
    known_fault: bool = False  # fails every time on a fault of the program
    expect: Any = None
    graph: Any = field(default=None, repr=False)


def generated(group: str, steps: int, seed: int, known_fault: bool = False) -> Case:
    graph = henneberg.generate_random(group, steps=steps, seed=seed).graph
    doc = document.graph_to_dict(graph)
    label = f"{group} steps={steps} seed={seed} n={graph.num_vertices}"
    return Case(label, doc, document.dumps(doc), known_fault)


def parsed_rows_match(case: Case, graph) -> bool:
    return oracle.same_rows(
        case.doc, graph.edges, [(l.id, l.vertex) for l in graph.loops]
    )


def draw_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1 << 30) for _ in range(count)]


class VerdictLarge:
    """parse, check_tight, classify(trials=3), dumps of the verdict."""

    name = "verdict-large"
    # realize._float_rank's cut loses true singular values of these c2
    # frameworks (trial ranks 1000 of 1002 and 600/601 of 602), while the
    # rank modulo a prime of the same integer matrices is full.
    KNOWN_FAULT = (("c2", 250, 2), ("c2", 150, 2))
    # n = 453, 404 and 605; fixed, because at these sizes the same cut
    # loses some c3, c4 and c5 trials too, and on a few seeds all three
    # trials of an operation (see CHANGES.md).
    FIXED = (("c3", 150, 0), ("c4", 100, 0), ("c5", 120, 0))
    # n = 183, 181 or 184, and 205, drawn from the seed
    SEEDED = (("c3", 60), ("c4", 45), ("c5", 40))

    def cases(self, seed: int) -> list[Case]:
        out = [generated(g, steps, s, known_fault=True) for g, steps, s in self.KNOWN_FAULT]
        out += [generated(*c) for c in self.FIXED]
        seeds = draw_seeds(self.name, seed, len(self.SEEDED))
        out += [generated(g, steps, s) for (g, steps), s in zip(self.SEEDED, seeds)]
        return out

    def expect(self, case: Case) -> None:
        """Isostatic for c2 and odd orders (the paper's theorem); for c4,
        the class given by the rank modulo a prime at the same placements.
        For the integral groups that rank is computed on every case, and
        for c2 it must agree with the theorem."""
        case.graph, _ = document.parse_graph(case.text)
        order = case.doc["group"]["order"]
        if order % 2:
            case.expect = "isostatic"
            return
        size = 2 * case.doc["num_vertices"]
        best = 0
        for t in range(TRIALS):
            fw = realize.sample_symmetric_placement(case.graph, seed=t)
            best = max(best, oracle.rank_mod_p(oracle.rigidity_matrix(case.doc, fw.p, fw.q)))
            if best == size:
                break
        case.expect = oracle.classification(best, oracle.row_count(case.doc), size)
        if order == 2 and case.expect != "isostatic":
            raise RuntimeError(f"{case.label}: rank modulo p {best} of {size}")

    def run(self, case: Case):
        graph, _ = document.parse_graph(case.text)
        tight = symcheck.check_tight(graph)
        report = realize.classify(graph, trials=TRIALS)
        out = {
            "group": graph.group.name,
            "num_vertices": graph.num_vertices,
            "num_rows": graph.num_rows,
            "rank": document.rank_report_to_dict(report),
        }
        out.update(document.tight_report_to_dict(tight))
        return graph, tight, report, document.dumps(out)

    def check(self, case: Case, result) -> bool:
        graph, tight, report, text = result
        out = json.loads(text)
        return (
            parsed_rows_match(case, graph)
            and tight.sparsity.verdict == oracle.expected_sparsity(case.doc)
            and tight.tight
            and out["tight"]
            and report.classification == case.expect
            and out["rank"]["classification"] == case.expect
        )


class DecomposeMid:
    """decompose, dumps of the trace."""

    name = "decompose-mid"
    # Fixed, not drawn from the seed: decompose's search time differs by
    # more than 10x between graphs of one size, and on about one seed in
    # four it finds no trace within minutes, so a seed-drawn list would
    # make every figure depend on the seed.  Both c5 graphs backtrack (371
    # and 476 tightness checks for 12 and 18 moves, where other seeds of
    # the same size need 75-220).  No case takes much over 2 s, so a run
    # holds several passes and each case's median is taken over samples
    # spread across the run rather than over one or two.
    CASES = (
        ("c1", 20, 0), ("c1", 35, 3), ("c2", 25, 1), ("c2", 30, 0),
        ("c3", 20, 0), ("c3", 40, 1), ("c5", 12, 1), ("c5", 18, 1),
    )

    def cases(self, seed: int) -> list[Case]:
        out = [generated(*c) for c in self.CASES]
        for case in out:
            case.graph, _ = document.parse_graph(case.text)
        return out

    def expect(self, case: Case) -> None:
        """Nothing to compute: the check rebuilds the input from the trace."""

    def run(self, case: Case):
        dec = henneberg.decompose(case.graph)
        return dec, document.dumps(document.decomposition_to_dict(dec))

    def check(self, case: Case, result) -> bool:
        dec, text = result
        out = json.loads(text)
        traces = []
        for trace in dec.components:
            g = henneberg.replay(trace)
            loops = [(l.id, l.vertex) for l in g.loops]
            traces.append((trace.embedding, trace.loop_embedding, g.edges, loops))
        return (
            oracle.traces_rebuild(case.doc, traces)
            and out["total_moves"] == dec.total_moves
            and len(out["components"]) == len(dec.components)
        )


WORKLOADS = {w.name: w for w in (VerdictLarge(), DecomposeMid())}


def probe(case: Case) -> None:
    """Every stage once on one small graph, for the traced run."""
    graph, _ = document.parse_graph(case.text)
    document.dumps(
        {
            "tight": document.tight_report_to_dict(symcheck.check_tight(graph)),
            "rank": document.rank_report_to_dict(realize.classify(graph, trials=1)),
            "trace": document.decomposition_to_dict(henneberg.decompose(graph)),
        }
    )
