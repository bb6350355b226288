"""JSON document serialization: round trips and strict parsing."""

import json

import pytest

from conftest import c2_fixed_edge, c3_wheel, mirror_fixed_vertex
from slcrigid import (
    ActionError,
    CycleEdge,
    Loop,
    OneEdgeSplit,
    OneLoopSplit,
    RangeError,
    SchemaError,
    Zero2Edges,
    ZeroEdgeLoop,
    base_graph,
    check_tight,
    classify,
    decompose,
    document,
    fixed_count_check,
    generate_random,
    motions,
    pebble_check,
    sample_symmetric_placement,
)


GRAPHS = [
    base_graph("pinned1"),
    base_graph("p1_fixed"),
    base_graph("lc5"),
    base_graph("lc6x2"),
    c2_fixed_edge(),
    c3_wheel(),
    mirror_fixed_vertex(),
]


def test_graph_round_trip():
    for g in GRAPHS:
        text = document.serialize_graph(g)
        back, fw = document.parse_graph(text)
        assert back == g
        assert fw is None


def test_graph_round_trip_with_placement():
    g = mirror_fixed_vertex()
    fw = sample_symmetric_placement(g, seed=7)
    text = document.serialize_graph(g, framework=fw)
    back, fw2 = document.parse_graph(text)
    assert back == g
    assert fw2 == fw


def test_serialization_is_byte_stable():
    g = c2_fixed_edge()
    assert document.serialize_graph(g) == document.serialize_graph(g)
    # keys are sorted so logically equal dicts print identically
    d = document.graph_to_dict(g)
    shuffled = dict(reversed(list(d.items())))
    assert document.dumps(d) == document.dumps(shuffled)


def test_parse_rejects_malformed_json():
    with pytest.raises(SchemaError):
        document.parse_graph("{not json")


def test_parse_rejects_wrong_version():
    d = document.graph_to_dict(base_graph("lc3"))
    d["version"] = 99
    with pytest.raises(SchemaError):
        document.parse_graph(document.dumps(d))


def test_parse_rejects_unknown_keys():
    d = document.graph_to_dict(base_graph("lc3"))
    d["surprise"] = 1
    with pytest.raises(SchemaError):
        document.parse_graph(document.dumps(d))


def test_parse_rejects_missing_fields():
    d = document.graph_to_dict(base_graph("lc3"))
    del d["group"]
    with pytest.raises(SchemaError):
        document.parse_graph(document.dumps(d))


def test_parse_rejects_bad_types():
    d = document.graph_to_dict(base_graph("lc3"))
    d["num_vertices"] = "three"
    with pytest.raises(SchemaError):
        document.parse_graph(document.dumps(d))
    d = document.graph_to_dict(base_graph("lc3"))
    d["edges"] = [[0, 1, 2]]
    with pytest.raises(SchemaError):
        document.parse_graph(document.dumps(d))


def test_parse_errors_name_the_bad_value():
    lc3 = base_graph("lc3")

    def edited(edit):
        d = document.graph_to_dict(lc3, sample_symmetric_placement(lc3))
        edit(d)
        return d

    for edit, message in (
        (lambda d: d["edges"][1].__setitem__(1, "2"), "edges[1][1] must be an integer"),
        (lambda d: d["edges"].__setitem__(2, 5), "edges[2] must be an array"),
        (lambda d: d["loops"][1].__setitem__("id", 1.0), "loops[1].id must be an integer"),
        (lambda d: d["loops"][2].__setitem__("colour", 1), "loops[2] has unknown keys: colour"),
        (lambda d: d["loops"][0].__setitem__("sigma_label", 1), "loops[0].sigma_label must be a string"),
        (
            lambda d: d["action"]["rotation_vertex_perm"].__setitem__(2, True),
            "rotation_vertex_perm[2] must be an integer",
        ),
        (
            lambda d: d["action"]["rotation_loop_perm"].__setitem__("1", "2"),
            "rotation_loop_perm[1] must be an integer",
        ),
        (lambda d: d["placement"]["p"][1].__setitem__(0, None), "placement.p[1] must be a number"),
        (lambda d: d["placement"]["q"].__setitem__("2", [1]), "placement.q[2] must be a pair"),
    ):
        with pytest.raises(SchemaError) as err:
            document.graph_from_dict(edited(edit))
        assert str(err.value) == message
    with pytest.raises(SchemaError) as err:
        document.move_from_dict({"type": "zero_edge_loop", "v1": "0"})
    assert str(err.value) == "move.v1 must be an integer"


def test_whole_list_checks_fall_back_to_the_first_bad_value():
    # edge lists, loop entries, vertex perms and loop perms are checked
    # whole; one bad value anywhere in a long list still gets the message
    # that names it
    graph = generate_random("c3", steps=30, seed=0).graph

    def edited(edit):
        d = document.graph_to_dict(graph)
        edit(d)
        return d

    for edit, message in (
        (lambda d: d["edges"][-3].__setitem__(0, 4.0), f"edges[{len(graph.edges) - 3}][0] must be an integer"),
        (lambda d: d["edges"][40].__setitem__(1, False), "edges[40][1] must be an integer"),
        (lambda d: d["edges"][7].append(3), "edges[7] must be a pair of vertices"),
        (
            lambda d: d["action"]["rotation_vertex_perm"].__setitem__(50, "1"),
            "rotation_vertex_perm[50] must be an integer",
        ),
        (
            lambda d: d["action"]["rotation_vertex_perm"].__setitem__(-1, True),
            f"rotation_vertex_perm[{graph.num_vertices - 1}] must be an integer",
        ),
        (lambda d: d["loops"][5].__setitem__("vertex", 2.0), "loops[5].vertex must be an integer"),
        (lambda d: d["loops"][-1].__setitem__("id", True), f"loops[{len(graph.loops) - 1}].id must be an integer"),
        (lambda d: d["loops"][3].pop("vertex"), "loops[3] needs 'id' and 'vertex'"),
        (lambda d: d["loops"][4].__setitem__("sign", "+"), "loops[4] has unknown keys: sign"),
        (lambda d: d["loops"].__setitem__(2, [0, 1]), "loops[2] must be an object"),
        (
            lambda d: d["action"]["rotation_loop_perm"].__setitem__("4", None),
            "rotation_loop_perm[4] must be an integer",
        ),
        (
            lambda d: d["action"]["rotation_loop_perm"].__setitem__("four", 4),
            "rotation_loop_perm keys must be integer loop ids",
        ),
    ):
        with pytest.raises(SchemaError) as err:
            document.graph_from_dict(edited(edit))
        assert str(err.value) == message
    assert document.graph_from_dict(edited(lambda d: None))[0] == graph


def test_two_keys_naming_one_loop_id_are_refused():
    # int() reads "0", "00", " 0", "+0", "0_5" (as 5) and "٧" (as 7) as loop
    # ids; two keys naming one id in one map used to collapse, the later
    # value winning, so only the spelling str() gives is a key
    graph = generate_random("c2", steps=3, seed=0).graph
    fw = sample_symmetric_placement(graph, seed=0)
    for key in ("00", " 0", "+0", "0_5", "٧"):
        for part, name, what in (
            ("action", "rotation_loop_perm", "rotation_loop_perm"),
            ("placement", "q", "placement.q"),
        ):
            d = document.graph_to_dict(graph, fw)
            d[part][name][key] = d[part][name]["0"]
            with pytest.raises(SchemaError) as err:
                document.parse_graph(document.dumps(d))
            assert str(err.value) == f"{what} keys must be integer loop ids"
    assert document.parse_graph(document.serialize_graph(graph, fw)) == (graph, fw)


def test_parse_validates_the_action():
    d = document.graph_to_dict(base_graph("lc3"))
    d["action"]["rotation_vertex_perm"] = [0, 1, 2]
    with pytest.raises(ActionError):
        document.parse_graph(document.dumps(d))


def test_move_round_trip():
    moves = [
        Zero2Edges(0, 1),
        ZeroEdgeLoop(2),
        OneEdgeSplit(0, 1, 2),
        OneLoopSplit(3, 0),
        CycleEdge(4, 2),
    ]
    for m in moves:
        text = document.dumps(document.move_to_dict(m))
        assert document.parse_move(text) == m
    assert document.move_to_dict(CycleEdge(4, 2)) == {"type": "cycle_edge", "v1": 4, "step": 2}
    assert document.move_from_dict({"type": "cycle_edge", "v1": 4, "step": 2}) == CycleEdge(4, 2)
    with pytest.raises(SchemaError, match="needs step"):
        document.move_from_dict({"type": "cycle_edge", "v1": 4})


def test_parse_move_rejects_unknown_kind():
    with pytest.raises(SchemaError):
        document.parse_move(json.dumps({"kind": "teleport", "v1": 0}))


def test_generated_and_decomposition_dicts_are_json():
    gen = generate_random("c3", steps=3, seed=4)
    gd = document.generated_to_dict(gen)
    dd = document.decomposition_to_dict(decompose(gen.graph))
    for d in (gd, dd):
        json.loads(document.dumps(d))
    assert gd["base_label"] == gen.base_label
    assert len(gd["moves"]) == 3
    assert dd["certified"] is True
    assert dd["total_moves"] == 3
    assert len(dd["components"]) == 1


def test_report_dicts_serialize():
    g = c2_fixed_edge()
    fw = sample_symmetric_placement(g, seed=0)
    reports = [
        document.sparsity_report_to_dict(
            pebble_check(g.num_vertices, g.edges, g.loop_vertices)
        ),
        document.fixed_count_report_to_dict(fixed_count_check(g)),
        document.tight_report_to_dict(check_tight(g)),
        document.rank_report_to_dict(classify(g, trials=2, seed=0)),
        document.motion_report_to_dict(motions(fw)),
    ]
    for d in reports:
        text = document.dumps(d)
        json.loads(text)


def test_rank_report_dict_contents():
    r = classify(base_graph("lc3"), trials=2, seed=1)
    d = document.rank_report_to_dict(r)
    assert d["classification"] == "isostatic"
    assert d["rank"] == d["num_rows"] == d["num_cols"] == 6
    assert d["trials"] == 2


def test_graph_from_numpy_arrays_serializes():
    import numpy as np

    g = base_graph("lc3")
    h = type(g)(
        g.group,
        g.num_vertices,
        np.array(g.edges, dtype=np.int64),
        g.loops,
        g.rotation_vertex_perm,
        g.rotation_loop_perm,
    )
    # the ids were np.int64 and json refused them
    assert document.dumps(document.graph_to_dict(h)) == document.dumps(document.graph_to_dict(g))
    # loop ids, loop vertices and perms were kept as np.int64 too
    i64 = np.int64
    h = type(g)(
        g.group,
        g.num_vertices,
        g.edges,
        tuple(Loop(i64(l.id), i64(l.vertex)) for l in g.loops),
        np.array(g.rotation_vertex_perm),
        np.array(g.rotation_loop_perm),
    )
    assert document.dumps(document.graph_to_dict(h)) == document.dumps(document.graph_to_dict(g))


def test_graph_refuses_float_or_bool_loop_ids_and_perm_entries():
    # 0.0 and True compare equal to ints and used to be kept as given
    from dataclasses import replace

    g = base_graph("lc3")
    rest = g.loops[1:]
    for bad in (0.0, False):
        for kw in (
            {"loops": (Loop(0, bad),) + rest},
            {"loops": (Loop(bad, 0),) + rest},
            {"rotation_vertex_perm": (1, 2, bad)},
            {"rotation_loop_perm": (1, 2, bad)},
            {"rotation_loop_perm": {0: 1, 1: 2, 2: bad}},
        ):
            with pytest.raises(RangeError, match="is not an integer"):
                replace(g, **kw)
