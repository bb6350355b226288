"""JSON documents for graphs, placements, traces, and reports.

The graph document is the interchange format of the command line tools:

    {
      "version": 1,
      "group": {"kind": "cyclic", "order": 3},
      "num_vertices": 4,
      "edges": [[0, 1], [0, 2], [0, 3]],
      "loops": [{"id": 0, "vertex": 1, "sigma_label": "+"}, ...],
      "action": {
        "rotation_vertex_perm": [0, 2, 3, 1],
        "rotation_loop_perm": {"0": 1, "1": 2, "2": 0}
      },
      "placement": {"p": [[x, y], ...], "q": {"0": [a, b], ...}}
    }

``action`` holds only the generators the group has (loop permutations are
keyed by loop id; JSON keys are strings).  ``placement`` is optional.
Parsing is strict: unknown keys, wrong types, bad indices, or permutation
data that is not a group action raise SchemaError, RangeError, or
ActionError respectively.  Serialization is canonical: sorted keys, fixed
indentation, trailing newline, so equal inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from typing import Any, get_args

from .errors import SchemaError
from .henneberg import ComponentTrace, Decomposition, GeneratedGraph, Move
from .realize import Framework, MotionReport, RankReport
from .symcheck import CharacterReport, FixedCountReport, TightReport, require_valid_action
from .symgraph import GroupSpec, Loop, SymmetricGraph, _graph_generators
from .sparsity import SparsityReport

VERSION = 1


def dumps(obj: Any) -> str:
    """Canonical JSON bytes for any document dict."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- low-level strict readers ------------------------------------------------
#
# A reader names the value it reads by ``what.format(*at)``, formatted only
# for the error: ``_expect_int(x, "edges[{}][0]", i)``.


def _expect_obj(x, what: str, *at) -> dict:
    if not isinstance(x, dict):
        raise SchemaError(f"{what.format(*at)} must be an object")
    return x


def _expect_list(x, what: str, *at) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"{what.format(*at)} must be an array")
    return x


def _expect_int(x, what: str, *at) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"{what.format(*at)} must be an integer")
    return x


def _expect_num(x, what: str, *at):
    """x when it is an int or a finite float: ``json.loads`` reads NaN,
    Infinity and an overflowing 1e400 as floats that are not finite.  An
    int of any size is exact, and is not read as a float here."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"{what.format(*at)} must be a number")
    if isinstance(x, float) and not math.isfinite(x):
        raise SchemaError(f"{what.format(*at)} must be a finite number")
    return x


def _expect_str(x, what: str, *at) -> str:
    if not isinstance(x, str):
        raise SchemaError(f"{what.format(*at)} must be a string")
    return x


def _check_keys(d: dict, allowed: set[str], what: str, *at) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise SchemaError(
            f"{what.format(*at)} has unknown keys: {', '.join(sorted(unknown))}"
        )


def _all_int_pairs(lst: list) -> bool:
    """Whether every entry is a list of two ints (``bool`` is not one),
    checked over the whole list at once."""
    return (
        set(map(type, lst)) <= {list}
        and set(map(len, lst)) <= {2}
        and set(map(type, chain.from_iterable(lst))) <= {int}
    )


_LOOP_KEYS = {"id", "vertex", "sigma_label"}


def _loop_entries(lst: list) -> list[Loop] | None:
    """The loops, when every entry is an object with int ``id`` and
    ``vertex`` and a string or null ``sigma_label`` if any, checked over
    the whole list at once; else None."""
    if not (set(map(type, lst)) <= {dict} and set(chain.from_iterable(lst)) <= _LOOP_KEYS):
        return None
    ids, vertices, labels = (list(map(dict.get, lst, repeat(k))) for k in ("id", "vertex", "sigma_label"))
    if set(map(type, ids + vertices)) <= {int} and set(map(type, labels)) <= {str, type(None)}:
        return list(map(Loop, ids, vertices, labels))
    return None


def _pair(x, what: str, *at) -> tuple:
    lst = _expect_list(x, what, *at)
    if len(lst) != 2:
        raise SchemaError(f"{what.format(*at)} must be a pair")
    return (_expect_num(lst[0], what, *at), _expect_num(lst[1], what, *at))


def _loop_ids(d: dict, what: str) -> list[int]:
    """The keys of the map ``what`` read as loop ids.  A key must be the
    one spelling ``str`` gives its id (not ``"00"``, ``"+0"``, ``" 0"``,
    ``"0_5"`` or ``"٧"``), so no two keys name one id."""
    try:
        ids = list(map(int, d))
    except ValueError:
        ids = None
    if ids is None or list(map(str, ids)) != list(d):
        raise SchemaError(f"{what} keys must be integer loop ids")
    return ids


def _int_key_map(x, what: str) -> dict[int, int]:
    """The map with its keys read as loop ids (``_loop_ids``) and its
    values as integers."""
    d = _expect_obj(x, what)
    out = dict(zip(_loop_ids(d, what), d.values()))
    if not set(map(type, d.values())) <= {int}:  # checked whole
        for k, v in d.items():  # the first bad entry gets its message
            _expect_int(v, "{}[{}]", what, k)
    return out


# -- numbers -----------------------------------------------------------------


def _num_out(x):
    """JSON value for a coordinate: exact integers stay integers."""
    from fractions import Fraction

    if isinstance(x, bool):
        raise SchemaError("coordinates cannot be booleans")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else float(x)
    return float(x)


# -- graph documents ---------------------------------------------------------


def group_to_dict(group: GroupSpec) -> dict:
    return {"kind": group.kind, "order": group.order}


def group_from_dict(d) -> GroupSpec:
    obj = _expect_obj(d, "group")
    _check_keys(obj, {"kind", "order"}, "group")
    if "kind" not in obj or "order" not in obj:
        raise SchemaError("group needs 'kind' and 'order'")
    return GroupSpec(_expect_str(obj["kind"], "group.kind"), _expect_int(obj["order"], "group.order"))


def graph_to_dict(graph: SymmetricGraph, framework: Framework | None = None) -> dict:
    loops = []
    for l in graph.loops:
        entry: dict[str, Any] = {"id": l.id, "vertex": l.vertex}
        if l.sigma_label is not None:
            entry["sigma_label"] = l.sigma_label
        loops.append(entry)
    doc: dict[str, Any] = {
        "version": VERSION,
        "group": group_to_dict(graph.group),
        "num_vertices": graph.num_vertices,
        "edges": [[u, v] for (u, v) in graph.edges],
        "loops": loops,
    }
    action: dict[str, Any] = {}
    for name, perm, pairs in _graph_generators(graph):
        action[f"{name}_vertex_perm"] = list(perm)
        if graph.loops:
            action[f"{name}_loop_perm"] = {str(i): image for i, image in pairs}
    if action:
        doc["action"] = action
    if framework is not None:
        doc["placement"] = {
            "p": [[_num_out(x), _num_out(y)] for (x, y) in framework.p],
            "q": {
                str(l.id): [_num_out(v[0]), _num_out(v[1])]
                for l, v in zip(graph.loops, framework.q)
            },
        }
    return doc


def graph_from_dict(d) -> tuple[SymmetricGraph, Framework | None]:
    doc = _expect_obj(d, "document")
    _check_keys(
        doc,
        {"version", "group", "num_vertices", "edges", "loops", "action", "placement"},
        "document",
    )
    if "version" not in doc:
        raise SchemaError("document needs a 'version'")
    if _expect_int(doc["version"], "version") != VERSION:
        raise SchemaError(f"unsupported document version {doc['version']}")
    if "group" not in doc or "num_vertices" not in doc:
        raise SchemaError("document needs 'group' and 'num_vertices'")
    group = group_from_dict(doc["group"])
    n = _expect_int(doc["num_vertices"], "num_vertices")

    raw_edges = _expect_list(doc.get("edges", []), "edges")
    if _all_int_pairs(raw_edges):
        edges = [(u, v) for u, v in raw_edges]
    else:  # the first bad entry gets its message
        edges = []
        for i, e in enumerate(raw_edges):
            pair = _expect_list(e, "edges[{}]", i)
            if len(pair) != 2:
                raise SchemaError(f"edges[{i}] must be a pair of vertices")
            edges.append((_expect_int(pair[0], "edges[{}][0]", i), _expect_int(pair[1], "edges[{}][1]", i)))

    raw_loops = _expect_list(doc.get("loops", []), "loops")
    loops = _loop_entries(raw_loops)
    if loops is None:  # the first bad entry gets its message
        loops = []
        for i, raw in enumerate(raw_loops):
            obj = _expect_obj(raw, "loops[{}]", i)
            _check_keys(obj, _LOOP_KEYS, "loops[{}]", i)
            if "id" not in obj or "vertex" not in obj:
                raise SchemaError(f"loops[{i}] needs 'id' and 'vertex'")
            label = obj.get("sigma_label")
            if label is not None:
                label = _expect_str(label, "loops[{}].sigma_label", i)
            loops.append(
                Loop(
                    _expect_int(obj["id"], "loops[{}].id", i),
                    _expect_int(obj["vertex"], "loops[{}].vertex", i),
                    label,
                )
            )

    action = _expect_obj(doc.get("action", {}), "action")
    _check_keys(
        action,
        {
            "rotation_vertex_perm",
            "rotation_loop_perm",
            "reflection_vertex_perm",
            "reflection_loop_perm",
        },
        "action",
    )

    def vperm(key: str):
        if key not in action:
            return None
        lst = _expect_list(action[key], key)
        if set(map(type, lst)) <= {int}:
            return tuple(lst)
        return tuple(_expect_int(x, "{}[{}]", key, i) for i, x in enumerate(lst))

    def lperm(key: str):
        if key not in action:
            return None
        return _int_key_map(action[key], key)

    graph = SymmetricGraph(
        group=group,
        num_vertices=n,
        edges=tuple(edges),
        loops=tuple(loops),
        rotation_vertex_perm=vperm("rotation_vertex_perm"),
        rotation_loop_perm=lperm("rotation_loop_perm"),
        reflection_vertex_perm=vperm("reflection_vertex_perm"),
        reflection_loop_perm=lperm("reflection_loop_perm"),
    )
    require_valid_action(graph)

    framework = None
    if "placement" in doc:
        pl = _expect_obj(doc["placement"], "placement")
        _check_keys(pl, {"p", "q"}, "placement")
        if "p" not in pl:
            raise SchemaError("placement needs 'p'")
        p = tuple(
            _pair(pt, "placement.p[{}]", i)
            for i, pt in enumerate(_expect_list(pl["p"], "placement.p"))
        )
        qmap_raw = _expect_obj(pl.get("q", {}), "placement.q")
        qmap = {
            i: _pair(v, "placement.q[{}]", k)
            for i, (k, v) in zip(_loop_ids(qmap_raw, "placement.q"), qmap_raw.items())
        }
        missing = [l.id for l in graph.loops if l.id not in qmap]
        extra = sorted(set(qmap) - {l.id for l in graph.loops})
        if missing:
            raise SchemaError(f"placement.q is missing loop ids {missing}")
        if extra:
            raise SchemaError(f"placement.q has unknown loop ids {extra}")
        framework = Framework(graph, p, tuple(qmap[l.id] for l in graph.loops))
    return graph, framework


def serialize_graph(graph: SymmetricGraph, framework: Framework | None = None) -> str:
    return dumps(graph_to_dict(graph, framework))


def parse_graph(text: str) -> tuple[SymmetricGraph, Framework | None]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from None
    return graph_from_dict(raw)


# -- moves and traces --------------------------------------------------------


def move_to_dict(move: Move) -> dict:
    if not isinstance(move, Move):
        raise SchemaError(f"unknown move {move!r}")
    return {"type": move.type, **vars(move)}


def move_from_dict(d) -> Move:
    obj = _expect_obj(d, "move")
    if "type" not in obj:
        raise SchemaError("move needs a 'type'")
    name = _expect_str(obj["type"], "move.type")
    cls = next((kind for kind in get_args(Move) if kind.type == name), None)
    if cls is None:
        raise SchemaError(f"unknown move type {name!r}")
    keys = cls.__match_args__
    _check_keys(obj, {"type", *keys}, "move")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"move {name} needs {', '.join(missing)}")
    return cls(*(_expect_int(obj[k], "move.{}", k) for k in keys))


def parse_move(text: str) -> Move:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from None
    return move_from_dict(raw)


def trace_to_dict(trace: ComponentTrace) -> dict:
    return {
        "base_label": trace.base_label,
        "base_graph": graph_to_dict(trace.base_graph),
        "moves": [move_to_dict(m) for m in trace.moves],
        "embedding": list(trace.embedding),
        "loop_embedding": {str(k): v for k, v in trace.loop_embedding},
    }


def decomposition_to_dict(dec: Decomposition) -> dict:
    return {
        "version": VERSION,
        "group": group_to_dict(dec.graph.group),
        "certified": dec.certified,
        "total_moves": dec.total_moves,
        "components": [trace_to_dict(t) for t in dec.components],
    }


def generated_to_dict(gen: GeneratedGraph) -> dict:
    return {
        "base_label": gen.base_label,
        "moves": [move_to_dict(m) for m in gen.moves],
    }


# -- report documents --------------------------------------------------------


def sparsity_report_to_dict(r: SparsityReport) -> dict:
    out: dict[str, Any] = {
        "verdict": r.verdict,
        "method": r.method,
        "num_vertices": r.num_vertices,
        "num_edges": r.num_edges,
        "num_loops": r.num_loops,
        "witness": None,
    }
    if r.witness is not None:
        out["witness"] = {
            "vertices": list(r.witness.vertices),
            "row_count": r.witness.row_count,
            "edge_count": r.witness.edge_count,
            "rule": r.witness.rule,
        }
    return out


def fixed_count_report_to_dict(r: FixedCountReport) -> dict:
    return {
        "passed": r.passed,
        "conditions": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in r.conditions
        ],
    }


def character_report_to_dict(r: CharacterReport) -> dict:
    return {
        "labels": list(r.labels),
        "chi_rows": list(r.chi_rows),
        "chi_cols": list(r.chi_cols),
        "equal_per_element": list(r.equal_per_element),
        "deltas": list(r.deltas),
        "equal": r.equal,
    }


def tight_report_to_dict(r: TightReport) -> dict:
    return {
        "sparsity": sparsity_report_to_dict(r.sparsity),
        "fixed_counts": fixed_count_report_to_dict(r.fixed_count),
        "characters": character_report_to_dict(r.character),
        "tight": r.tight,
    }


def rank_report_to_dict(r: RankReport) -> dict:
    return {
        "rank": r.rank,
        "num_rows": r.num_rows,
        "num_cols": r.num_cols,
        "backend": r.backend,
        "classification": r.classification,
        "tolerance": r.tolerance,
        "smallest_accepted": r.smallest_accepted,
        "largest_rejected": r.largest_rejected,
        "trials": r.trials,
        "trial_ranks": list(r.trial_ranks),
        "seed": r.seed,
    }


def motion_report_to_dict(r: MotionReport) -> dict:
    return {
        "dimension": r.dimension,
        "backend": r.backend,
        "residual": r.residual,
        "basis": [
            [[_num_out(x), _num_out(y)] for (x, y) in motion] for motion in r.basis
        ],
    }


__all__ = [
    "VERSION",
    "dumps",
    "group_to_dict",
    "group_from_dict",
    "graph_to_dict",
    "graph_from_dict",
    "serialize_graph",
    "parse_graph",
    "move_to_dict",
    "move_from_dict",
    "parse_move",
    "trace_to_dict",
    "decomposition_to_dict",
    "generated_to_dict",
    "sparsity_report_to_dict",
    "fixed_count_report_to_dict",
    "character_report_to_dict",
    "tight_report_to_dict",
    "rank_report_to_dict",
    "motion_report_to_dict",
]
