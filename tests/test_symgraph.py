"""Group algebra, action validation, orbits, and fixed-element counts."""

import importlib.util
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    action_tuples,
    c2_fixed_edge,
    c3_wheel,
    d2_loop_fixed_by_both_mirrors,
    d3_flower,
    mirror_fixed_vertex,
    mirror_pair,
    ring_with_spokes,
)
from slcrigid import (
    ActionError,
    GroupElement,
    GroupSpec,
    Loop,
    RangeError,
    SchemaError,
    SymmetricGraph,
    base_graph,
    generate_random,
    element_tables,
    fixed_counts,
    induced_subgraph,
    orbits,
    relabel,
    symmetric_components,
    validate_action,
)
from slcrigid.symgraph import mirror_sign, stabilizers


def test_group_names_round_trip():
    for name in ["c1", "c2", "c3", "c4", "c6", "cs", "d1", "d2", "d3"]:
        assert GroupSpec.from_name(name).name == name


def test_group_name_rejects_garbage():
    for bad in ["", "c", "cx", "5c", "d", "t4", "c-3"]:
        with pytest.raises(SchemaError):
            GroupSpec.from_name(bad)


def test_group_sizes():
    assert GroupSpec.from_name("c1").size == 1
    assert GroupSpec.from_name("c5").size == 5
    assert GroupSpec.from_name("cs").size == 2
    assert GroupSpec.from_name("d3").size == 6


def test_element_algebra_closure():
    # every element composed with its inverse gives the identity
    for name in ["c1", "c2", "c4", "cs", "d3"]:
        group = GroupSpec.from_name(name)
        eye = group.identity()
        els = group.elements()
        assert len(els) == group.size
        assert len(set(els)) == group.size
        for a in els:
            assert group.compose(a, group.inverse(a)) == eye
            for b in els:
                assert group.compose(a, b) in els


def test_element_orders_divide_group_size():
    for name in ["c6", "d2"]:
        group = GroupSpec.from_name(name)
        for e in group.elements():
            order = group.element_order(e)
            assert order >= 1
            assert group.size % order == 0


def test_half_turn_presence():
    assert GroupSpec.from_name("c2").half_turn() is not None
    assert GroupSpec.from_name("c6").half_turn() is not None
    assert GroupSpec.from_name("c5").half_turn() is None
    assert GroupSpec.from_name("c1").half_turn() is None


def test_tau_matrices_match_exact_forms():
    group = GroupSpec.from_name("c4")
    for e in group.elements():
        approx = group.tau(e)
        exact = group.tau_exact(e)
        assert exact is not None
        for i in range(2):
            for j in range(2):
                assert abs(approx[i][j] - float(exact[i][j])) < 1e-12


ROOT = Path(__file__).resolve().parents[1]
PRIME_GROUPS = [f"c{n}" for n in range(1, 9)] + ["cs"] + [f"d{n}" for n in range(2, 7)]


def _oracle_prime() -> int:
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "benchmark" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PRIME


def _is_prime_by_trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_prime_field_holds_every_group_matrix():
    oracle_prime = _oracle_prime()
    for name in PRIME_GROUPS:
        group = GroupSpec.from_name(name)
        p = group.prime_field.prime
        assert p < 2**31 and _is_prime_by_trial_division(p), name
        assert p % math.lcm(4, 2 * group.rotation_order) == 1, name
        assert p != oracle_prime, name
        taus = {e: group.tau_mod(e) for e in group.elements()}
        identity = ((1, 0), (0, 1))
        for a in group.elements():
            for b in group.elements():
                prod = tuple(
                    tuple(sum(taus[a][i][t] * taus[b][t][j] for t in range(2)) % p for j in range(2))
                    for i in range(2)
                )
                assert prod == taus[group.compose(a, b)], (name, a, b)
            assert (taus[a] == identity) == (a == group.identity()), (name, a)
            if group.exact_supported:
                exact = group.tau_exact(a)
                assert all((x - y) % p == 0 for r, s in zip(exact, taus[a]) for x, y in zip(r, s))
            if a.ref:
                (c, s), (t, u) = taus[a]
                d = group.mirror_direction_mod(a)
                assert d != (0, 0) and ((c * d[0] + s * d[1]) % p, (t * d[0] + u * d[1]) % p) == d


def test_prime_is_found_on_first_use_only():
    code = (
        "import slcrigid, slcrigid.cli; from slcrigid.symgraph import _prime_field;"
        " print(_prime_field.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.stdout.strip() == "0", done.stderr


def test_exact_support_is_integral_rotations_only():
    assert GroupSpec.from_name("c1").exact_supported
    assert GroupSpec.from_name("c2").exact_supported
    assert GroupSpec.from_name("c4").exact_supported
    assert not GroupSpec.from_name("c3").exact_supported
    assert not GroupSpec.from_name("c6").exact_supported


def test_loops_are_stored_sorted_by_id():
    g = SymmetricGraph(
        GroupSpec("cyclic", 1), 2, ((0, 1),), (Loop(5, 1), Loop(2, 0))
    )
    assert [l.id for l in g.loops] == [2, 5]
    assert g.loop_ids == (2, 5)
    assert g.loop_vertices == (0, 1)


def test_edges_are_normalized():
    g = SymmetricGraph(GroupSpec("cyclic", 1), 3, ((2, 0), (1, 0)), ())
    assert g.edges == ((0, 1), (0, 2))


def test_self_edge_rejected():
    with pytest.raises(RangeError):
        SymmetricGraph(GroupSpec("cyclic", 1), 2, ((1, 1),), ())


def test_duplicate_edge_rejected():
    with pytest.raises(RangeError):
        SymmetricGraph(GroupSpec("cyclic", 1), 2, ((0, 1), (1, 0)), ())


def test_validate_rejects_wrong_generator_order():
    # the half-turn generator below is a 3-cycle, order 3 not 2
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        3,
        (),
        (),
        rotation_vertex_perm=(1, 2, 0),
        rotation_loop_perm={},
    )
    report = validate_action(g)
    assert not report.ok


def test_identity_action_is_a_valid_action():
    # a half-turn may fix everything; faithfulness is not required
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        2,
        (),
        (Loop(0, 0), Loop(1, 0), Loop(2, 1), Loop(3, 1)),
        rotation_vertex_perm=(0, 1),
        rotation_loop_perm={0: 0, 1: 1, 2: 2, 3: 3},
    )
    assert validate_action(g).ok


def test_validate_rejects_broken_edge_closure():
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        4,
        ((0, 2),),
        (),
        rotation_vertex_perm=(1, 0, 3, 2),
        rotation_loop_perm={},
    )
    report = validate_action(g)
    assert not report.ok
    assert any("edge" in v for v in report.violations)


def test_validate_rejects_loop_moved_off_its_vertex():
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        2,
        (),
        (Loop(0, 0), Loop(1, 0)),
        rotation_vertex_perm=(1, 0),
        rotation_loop_perm={0: 1, 1: 0},
    )
    report = validate_action(g)
    assert not report.ok


def test_validate_rejects_loop_fixed_by_order_four_rotation():
    g = SymmetricGraph(
        GroupSpec("cyclic", 4),
        1,
        (),
        (Loop(0, 0), Loop(1, 0)),
        rotation_vertex_perm=(0,),
        rotation_loop_perm={0: 0, 1: 1},
    )
    report = validate_action(g)
    assert not report.ok


def test_validate_requires_sigma_label_on_mirror_fixed_loops():
    g = SymmetricGraph(
        GroupSpec("reflection", 2),
        1,
        (),
        (Loop(0, 0), Loop(1, 0)),
        reflection_vertex_perm=(0,),
        reflection_loop_perm={0: 0, 1: 1},
    )
    report = validate_action(g)
    assert not report.ok
    assert any("sigma_label" in v for v in report.violations)


def test_sigma_label_forbidden_without_a_fixing_mirror():
    g = SymmetricGraph(
        GroupSpec("cyclic", 1),
        1,
        (),
        (Loop(0, 0, sigma_label="+"),),
    )
    report = validate_action(g)
    assert not report.ok
    assert any("sigma_label" in v for v in report.violations)


def test_element_action_tables_consistent():
    g = base_graph("lc5")
    vimages, limages = g.action
    assert len(vimages) == len(limages) == g.group.size
    for vp, lp in zip(vimages.tolist(), limages.tolist()):
        assert sorted(vp) == list(range(5))
        for u, v in g.edges:
            assert tuple(sorted((vp[u], vp[v]))) in g.edges
        for k, l in enumerate(g.loops):
            assert g.loops[lp[k]].vertex == vp[l.vertex]


def test_orbits_of_looped_cycle():
    g = base_graph("lc5")
    orb = orbits(g)
    assert orb.vertices == ((0, 1, 2, 3, 4),)
    assert len(orb.edges) == 1 and len(orb.edges[0]) == 5
    assert len(orb.loops) == 1 and len(orb.loops[0]) == 5
    assert [o for o in orb.vertices if 3 in o] == [(0, 1, 2, 3, 4)]


def test_stabilizer_of_fixed_vertex():
    # nonidentity stabilizer of the half-turn-fixed vertex is the half-turn
    g = base_graph("p1_fixed")
    stab = stabilizers(g, "vertex")[0]
    assert stab == (GroupElement(1, False),)
    free = base_graph("lc3")
    assert stabilizers(free, "vertex")[0] == ()


def test_one_item_stabilizers_match_the_table_of_all():
    # each item's stabilizer read one at a time off the composed action;
    # stabilizers() reads every item at once, and mirror signs follow it:
    # the label's sign under the first fixing mirror, negated under a second
    for g in (
        c3_wheel(),
        c2_fixed_edge(),
        ring_with_spokes(5),
        mirror_pair(),
        mirror_fixed_vertex(),
        d2_loop_fixed_by_both_mirrors(),
        d3_flower(),
        base_graph("p1_fixed"),
        base_graph("p1_swap"),
    ):
        nonid = list(zip(g.group.elements(), action_tuples(g)))[1:]
        vstab = stabilizers(g, "vertex")
        assert [
            tuple(e for e, (vp, _) in nonid if vp[v] == v) for v in range(g.num_vertices)
        ] == list(vstab)
        lstab = stabilizers(g, "loop")
        assert [
            tuple(e for e, (_, lp) in nonid if lp[k] == l.id) for k, l in enumerate(g.loops)
        ] == list(lstab)
        for l, stab in zip(g.loops, lstab):
            mirrors = [e for e in stab if e.ref]
            sign = 1 if l.sigma_label == "+" else -1
            signs = [mirror_sign(g.group, l, stab, mirror) for mirror in mirrors]
            assert signs == [sign, -sign][: len(mirrors)]


def test_fixed_counts_of_fixed_edge_triangle():
    g = c2_fixed_edge()
    per = {c.label: c for c in fixed_counts(g).per_element}
    assert per["id"].vertices == 3
    assert per["id"].edges == 3
    assert per["id"].loops == 3
    assert per["c2"].vertices == 1
    assert per["c2"].edges == 1
    assert per["c2"].loops == 1


def test_fixed_counts_mirror_signs():
    g = mirror_fixed_vertex()
    per = {c.label: c for c in fixed_counts(g).per_element}
    assert per["s"].loops_plus == 1
    assert per["s"].loops_minus == 1
    mirror = GroupElement(0, True)
    lstab = stabilizers(g, "loop")
    for loop_id, sign in ((0, 1), (1, -1)):
        k = g.loop_index(loop_id)
        assert mirror_sign(g.group, g.loops[k], lstab[k], mirror) == sign


def test_mirror_pair_fixed_edge_counts():
    g = mirror_pair()
    per = {c.label: c for c in fixed_counts(g).per_element}
    assert per["s"].edges == 1
    assert per["s"].loops == 0


def test_symmetric_components_join_orbit_mates():
    # two disjoint looped triangles that map to each other under c6
    g = base_graph("lc6x2")
    assert symmetric_components(g) == (tuple(range(6)),)


def test_symmetric_components_split_disjoint_pieces():
    g1 = base_graph("pinned2")
    # two independent pinned orbits under c2, no edges between them
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        4,
        (),
        tuple(Loop(i, i // 2) for i in range(4))
        + tuple(Loop(4 + i, 2 + i // 2) for i in range(4)),
        rotation_vertex_perm=(1, 0, 3, 2),
        rotation_loop_perm={0: 2, 1: 3, 2: 0, 3: 1, 4: 6, 5: 7, 6: 4, 7: 5},
    )
    assert validate_action(g).ok
    assert symmetric_components(g) == ((0, 1), (2, 3))
    sub, vmap = induced_subgraph(g, (2, 3))
    assert sub.num_vertices == 2
    assert vmap == {2: 0, 3: 1}
    assert len(sub.loops) == 4
    assert validate_action(sub).ok
    assert g1.num_vertices == 2


def test_relabel_round_trip():
    rng = random.Random(7)
    g = base_graph("lc5")
    perm = list(range(5))
    rng.shuffle(perm)
    ids = list(g.loop_ids)
    new_ids = [i + 10 for i in range(5)]
    rng.shuffle(new_ids)
    lmap = dict(zip(ids, new_ids))
    h = relabel(g, perm, lmap)
    assert validate_action(h).ok
    back = relabel(
        h,
        [perm.index(i) for i in range(5)],
        {v: k for k, v in lmap.items()},
    )
    assert back == g


def test_relabel_rejects_non_permutation():
    g = base_graph("lc3")
    with pytest.raises((SchemaError, RangeError)):
        relabel(g, [0, 0, 1], {0: 0, 1: 1, 2: 2})


def test_induced_subgraph_keeps_incident_rows_only():
    g = c2_fixed_edge()
    sub, vmap = induced_subgraph(g, (1, 2))
    assert sub.num_vertices == 2
    assert sub.edges == ((0, 1),)
    assert len(sub.loops) == 2


@pytest.mark.parametrize(
    "build", [mirror_pair, mirror_fixed_vertex, d2_loop_fixed_by_both_mirrors, d3_flower]
)
def test_relabel_round_trip_with_mirrors(build):
    g = build()
    rng = random.Random(3)
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    new_ids = [i + 20 for i in range(len(g.loops))]
    rng.shuffle(new_ids)
    lmap = dict(zip(g.loop_ids, new_ids))
    h = relabel(g, perm, lmap)
    assert validate_action(h).ok, validate_action(h).violations
    labels = {lmap[l.id]: l.sigma_label for l in g.loops}
    assert {l.id: l.sigma_label for l in h.loops} == labels
    back = relabel(h, [perm.index(i) for i in range(len(perm))], {v: k for k, v in lmap.items()})
    assert back == g


def test_induced_subgraph_of_a_mirror_graph_keeps_the_labels():
    g = d3_flower()
    sub, vmap = induced_subgraph(g, (6, 7, 8))  # the mirror orbit
    assert vmap == {6: 0, 7: 1, 8: 2}
    assert validate_action(sub).ok, validate_action(sub).violations
    assert sub.loops == tuple(Loop(6 + k, k, sigma_label="+") for k in range(3))
    assert sub.reflection_vertex_perm == (0, 2, 1)
    ring, _ = induced_subgraph(g, range(6))  # the free orbit
    assert validate_action(ring).ok
    assert all(l.sigma_label is None for l in ring.loops)
    with pytest.raises(ActionError):
        induced_subgraph(g, (0, 1, 2))  # a free orbit's rotations, not its mirror images


@pytest.mark.parametrize("group", ["c1", "c2"])
@pytest.mark.parametrize("vertices", [[0, 1, 99], [-1]], ids=["99", "-1"])
def test_induced_subgraph_refuses_a_vertex_out_of_range(group, vertices):
    g = generate_random(group, steps=3, seed=0).graph
    with pytest.raises(RangeError):
        induced_subgraph(g, vertices)


def test_action_error_message_collects_all_violations():
    g = SymmetricGraph(
        GroupSpec("cyclic", 2),
        2,
        (),
        (Loop(0, 0), Loop(1, 1)),
        rotation_vertex_perm=(0, 1),
        rotation_loop_perm={0: 1, 1: 0},
    )
    report = validate_action(g)
    assert not report.ok
    assert len(report.violations) >= 1


def test_kept_action_is_invisible_to_equality_hash_and_repr():
    g = d3_flower()
    fixed_counts(g)
    assert all(np.array_equal(a, b) for a, b in zip(g.action, element_tables(g)))
    fresh = d3_flower()
    assert g == fresh
    assert hash(g) == hash(fresh)
    assert repr(g) == repr(fresh)


def test_replaced_graph_builds_its_own_action():
    g = base_graph("lc5")
    assert g.action[0][1].tolist() == [1, 2, 3, 4, 0]
    # the pentagon's edges are also closed under the rotation by two
    h = replace(
        g,
        rotation_vertex_perm=(2, 3, 4, 0, 1),
        rotation_loop_perm={i: (i + 2) % 5 for i in range(5)},
    )
    assert validate_action(h).ok
    assert h != g
    # the loop ids are 0..4, so loop indices are ids
    assert [t[1].tolist() for t in h.action] == [[2, 3, 4, 0, 1]] * 2
    assert g.action[0][1].tolist() == [1, 2, 3, 4, 0]


def test_returned_action_values_do_not_alias_the_kept_one():
    g = mirror_fixed_vertex()
    before = fixed_counts(g)
    tables = element_tables(g)
    assert all(t is not kept for t, kept in zip(tables, g.action))
    for table in tables:
        with pytest.raises(ValueError):
            table[1, 0] = 1
    assert fixed_counts(g) == before


# -- the int64 tables against the action tuples ------------------------------
#
# The reference versions below walk the action composed in tuples by
# ``action_tuples`` one item at a time, as ``_fixed``, ``stabilizers``,
# ``fixed_counts`` and ``validate_action`` did before they read the int64
# tables of ``graph.action``; results and messages must agree.


def _tables_as_tuples(graph, tables):
    """``element_tables``' arrays as ``action_tuples`` gives the action."""
    ids = graph.loop_ids
    vimages, limages = tables
    return tuple(
        (tuple(vp), tuple(ids[k] for k in lp))
        for vp, lp in zip(vimages.tolist(), limages.tolist())
    )


def _reference_fixed(graph, kind):
    nonid = list(zip(graph.group.elements(), action_tuples(graph)))[1:]
    if kind == "vertex":
        return graph.num_vertices, [
            (e, [v for v in range(graph.num_vertices) if vp[v] == v]) for e, (vp, _) in nonid
        ]
    if kind == "edge":
        return len(graph.edges), [
            (e, [i for i, (u, v) in enumerate(graph.edges) if (vp[u], vp[v]) in ((u, v), (v, u))])
            for e, (vp, _) in nonid
        ]
    return len(graph.loops), [
        (e, [k for k, l in enumerate(graph.loops) if lp[k] == l.id]) for e, (_, lp) in nonid
    ]


def _reference_stabilizers(graph, kind):
    count, fixed = _reference_fixed(graph, kind)
    out = [[] for _ in range(count)]
    for elem, items in fixed:
        for i in items:
            out[i].append(elem)
    return tuple(map(tuple, out))


def _reference_fixed_counts(graph):
    from slcrigid.symgraph import ElementCounts, FixedCounts

    group = graph.group
    (nv, vfix), (ne, efix), (nl, lfix) = (
        _reference_fixed(graph, kind) for kind in ("vertex", "edge", "loop")
    )
    lstab = _reference_stabilizers(graph, "loop")
    identity = group.identity()
    out = [ElementCounts(identity, group.element_label(identity), nv, ne, nl)]
    for (elem, vs), (_, es), (_, ls) in zip(vfix, efix, lfix):
        plus = minus = None
        if elem.ref:
            signs = [mirror_sign(group, graph.loops[k], lstab[k], elem) for k in ls]
            plus, minus = signs.count(1), signs.count(-1)
        out.append(
            ElementCounts(elem, group.element_label(elem), len(vs), len(es), len(ls), plus, minus)
        )
    return FixedCounts(tuple(out))


def _reference_violations(graph):
    group, action = graph.group, action_tuples(graph)
    n_rot = group.rotation_order
    loop_index = {l.id: k for k, l in enumerate(graph.loops)}
    bad = []

    def is_identity(f, g):
        (fv, fl), (gv, gl) = f, g
        composed = tuple(fv[x] for x in gv), tuple(fl[loop_index[i]] for i in gl)
        return composed == action[0]

    if n_rot > 1 and not is_identity(action[1], action[n_rot - 1]):
        bad.append("rotation generator order does not divide the group order")
    if group.has_reflection:
        if not is_identity(action[n_rot], action[n_rot]):
            bad.append("reflection generator is not an involution")
        if n_rot > 1 and not is_identity(action[n_rot + 1], action[n_rot + 1]):
            bad.append("generators do not satisfy the dihedral relation")
    edge_set = set(graph.edges)
    gens = [(action[1], "rotation")] if n_rot > 1 else []
    if group.has_reflection:
        gens.append((action[n_rot], "reflection"))
    for (gv, gl), name in gens:
        for (u, v) in graph.edges:
            if tuple(sorted((gv[u], gv[v]))) not in edge_set:
                bad.append(f"{name} does not preserve edge ({u}, {v})")
        for l, img_id in zip(graph.loops, gl):
            img = graph.loops[loop_index[img_id]]
            if img.vertex != gv[l.vertex]:
                bad.append(
                    f"{name} sends loop {l.id} at {l.vertex} to loop {img.id}"
                    f" at {img.vertex}, expected vertex {gv[l.vertex]}"
                )
    if bad:
        return tuple(bad)
    mirror_fixed = set()
    for elem, (evp, elp) in list(zip(group.elements(), action))[1:]:
        order = group.element_order(elem)
        for l, img_id in zip(graph.loops, elp):
            if img_id != l.id:
                continue
            if order != 2:
                bad.append(f"loop {l.id} fixed by {group.element_label(elem)} of order {order}")
            if evp[l.vertex] != l.vertex:
                bad.append(f"loop {l.id} fixed but its vertex {l.vertex} is not")
            if elem.ref:
                mirror_fixed.add(l.id)
    for l in graph.loops:
        if l.id in mirror_fixed and l.sigma_label is None:
            bad.append(f"loop {l.id} is mirror-fixed but has no sigma_label")
        if l.id not in mirror_fixed and l.sigma_label is not None:
            bad.append(f"loop {l.id} has a sigma_label but no mirror fixes it")
    return tuple(bad)


def _outcome(fn, graph):
    """fn(graph), or the type and message of what it raised."""
    try:
        return fn(graph)
    except ActionError as err:
        return type(err), str(err)


def _broken_variants(graph, rng):
    """The graph with its stored action wrong in one place, one way each."""
    n = graph.num_vertices
    for gen in ("rotation", "reflection"):
        vp = getattr(graph, f"{gen}_vertex_perm")
        if vp is None:
            continue
        if n > 1:
            swapped = list(vp)
            i, j = rng.sample(range(n), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            yield replace(graph, **{f"{gen}_vertex_perm": tuple(swapped)})
        lp = getattr(graph, f"{gen}_loop_perm")
        if len(lp) > 1:
            yield replace(graph, **{f"{gen}_loop_perm": lp[1:] + lp[:1]})
        if lp:
            yield replace(graph, **{f"{gen}_loop_perm": graph.loop_ids})
    if graph.loops:
        yield replace(graph, loops=tuple(Loop(l.id, l.vertex, "+") for l in graph.loops))
        yield replace(graph, loops=tuple(Loop(l.id, l.vertex) for l in graph.loops))


def _table_graphs():
    for order in range(1, 8):
        for seed in (0, 1):
            yield generate_random(f"c{order}", steps=4 + 2 * seed, seed=seed).graph
    yield from (
        mirror_pair(),
        mirror_fixed_vertex(),
        d2_loop_fixed_by_both_mirrors(),
        d3_flower(),
        c2_fixed_edge(),
        c3_wheel(),
        ring_with_spokes(5),
    )


def test_table_readers_match_the_action_tuples_on_valid_and_broken_actions():
    rng = random.Random(0)
    seen = {"valid": 0, "broken": 0, "raised": 0}
    for graph in _table_graphs():
        for g in [graph, *_broken_variants(graph, rng)]:
            for tables in (g.action, element_tables(g)):
                assert _tables_as_tuples(g, tables) == action_tuples(g)
            violations = _reference_violations(g)
            assert validate_action(g).violations == violations
            assert validate_action(g).ok == (not violations)
            for kind in ("vertex", "edge", "loop"):
                assert stabilizers(g, kind) == _reference_stabilizers(g, kind)
            counts = _outcome(fixed_counts, g)
            assert counts == _outcome(_reference_fixed_counts, g)
            seen["broken" if violations else "valid"] += 1
            seen["raised"] += isinstance(counts, tuple)
    # every path was taken: valid and broken actions, and a mirror-fixed
    # loop with no label, on which fixed_counts raises
    assert min(seen.values()) > 0, seen


def test_table_copies_are_kept_and_read_only():
    g = d3_flower()
    vimages, limages = g.action
    assert g.action[0] is vimages and g.edge_ends is g.edge_ends
    assert _tables_as_tuples(g, g.action) == action_tuples(g)
    assert g.edge_ends.tolist() == [list(e) for e in g.edges]
    for table in (vimages, limages, g.edge_ends):
        assert table.dtype == np.int64
        with pytest.raises(ValueError):
            table[0, 0] = 1
    assert g == d3_flower() and repr(g) == repr(d3_flower())
