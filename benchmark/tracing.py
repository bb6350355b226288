"""Per-layer spans and counts, recorded by wrapping slcrigid from outside.

``install`` replaces public functions by timing wrappers in every slcrigid
module that holds them, so a call from one module into another passes
through a wrapper whichever module makes it.  Nothing under ``src/`` is
edited.  Spans (name, start, end, parent span, operation) are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from slcrigid import document, henneberg, realize, sparsity, symcheck, symgraph

MAX_SPANS = 200_000

# per-layer metric -> span whose total time it reports
LAYER_TIMES = {
    "document.parse_graph_s": "document.parse_graph",
    "document.dumps_s": "document.dumps",
    "symgraph.validate_action_s": "symgraph.validate_action",
    "sparsity.pebble_check_s": "sparsity.pebble_check",
    "symcheck.fixed_count_check_s": "symcheck.fixed_count_check",
    "symcheck.character_vectors_s": "symcheck.character_vectors",
    "symcheck.check_tight_s": "symcheck.check_tight",
    "realize.sample_symmetric_placement_s": "realize.sample_symmetric_placement",
    "realize.build_rigidity_matrix_s": "realize.build_rigidity_matrix",
    "realize.to_array_s": "realize.RigidityMatrix.to_array",
    "realize.rank_s": "realize.rank",
    "henneberg.decompose_s": "henneberg.decompose",
}

# per-layer metric -> call count or outcome count it reports
LAYER_COUNTS = {
    "symgraph.element_tables_calls": "symgraph.element_tables",
    "symcheck.check_tight_calls": "symcheck.check_tight",
    "realize.rank_trials": "realize.rank",
    "realize.full_rank_trials": "realize.full_rank",
    "henneberg.reduction_checks": "henneberg.check_tight",
    "henneberg.trace_moves": "henneberg.trace_moves",
}


class Tracer:
    """Accumulates time and calls per span name while ``op`` is set."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op: str | None = None  # spans are recorded only inside an operation
        self._stack: list[int] = []

    def wrap(self, name: str, fn, outcome=None):
        """Timing wrapper; ``outcome(result)`` may return extra counts."""

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            if index < MAX_SPANS:
                self.spans.append(None)
            else:
                index = -1
                self.dropped += 1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.seconds[name] += end - start
                self.counts[name] += 1
                if index >= 0:
                    self.spans[index] = (name, start, end, parent, self.op)
            if outcome is not None:
                self.counts.update(outcome(result))
            return result

        return traced

    def take(self) -> tuple[dict[str, float], Counter]:
        """Totals so far; the next operations start from zero."""
        out = dict(self.seconds), self.counts
        self.seconds, self.counts = defaultdict(float), Counter()
        return out


def _replace_everywhere(original, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "slcrigid" or module_name.startswith("slcrigid."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries named in LAYER_TIMES and LAYER_COUNTS."""
    full_rank = lambda rep: {"realize.full_rank": int(rep.rank == rep.num_cols)}
    trace_moves = lambda dec: {"henneberg.trace_moves": dec.total_moves}
    for module, attr, outcome in (
        (document, "parse_graph", None),
        (document, "dumps", None),
        (symgraph, "validate_action", None),
        (symgraph, "element_tables", None),
        (sparsity, "pebble_check", None),
        (symcheck, "fixed_count_check", None),
        (symcheck, "character_vectors", None),
        (symcheck, "check_tight", None),
        (realize, "sample_symmetric_placement", None),
        (realize, "build_rigidity_matrix", None),
        (realize, "rank", full_rank),
        (henneberg, "decompose", trace_moves),
    ):
        original = getattr(module, attr)
        name = f"{module.__name__.removeprefix('slcrigid.')}.{attr}"
        _replace_everywhere(original, tracer.wrap(name, original, outcome))
    # the reduction search's own tightness checks, on top of the count above
    henneberg.check_tight = tracer.wrap("henneberg.check_tight", henneberg.check_tight)
    realize.RigidityMatrix.to_array = tracer.wrap(
        "realize.RigidityMatrix.to_array", realize.RigidityMatrix.to_array
    )


def layer_metrics(
    seconds: dict[str, float],
    counts: Counter,
    ops: int,
    probe_seconds: dict[str, float],
) -> dict[str, float]:
    """Per-operation layer figures of a traced run.

    A layer the workload never calls reports its time in the probe
    operation instead of a constant zero; its counts stay zero.
    """
    out = {}
    for metric, span in LAYER_TIMES.items():
        if counts[span]:
            out[metric] = seconds[span] / ops
        else:
            out[metric] = probe_seconds.get(span, 0.0)
    for metric, key in LAYER_COUNTS.items():
        out[metric] = counts[key] / ops
    return out
