"""Tests of the benchmark's own checks against the library's exact paths.

    python3 -m pytest benchmark/test_oracle.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from slcrigid import document, realize  # noqa: E402
from slcrigid.henneberg import base_graph, generate_random  # noqa: E402
from slcrigid.selftest import negative_control  # noqa: E402

import oracle  # noqa: E402

INTEGRAL_GRAPHS = [
    base_graph("p1_fixed"),
    base_graph("p1_swap"),
    base_graph("pinned1"),
    base_graph("pinned2"),
    base_graph("pinned4"),
    negative_control(),
    *(generate_random(g, steps=s, seed=1).graph for g in ("c1", "c2", "c4") for s in (3, 8)),
]


@pytest.mark.parametrize("graph", INTEGRAL_GRAPHS, ids=lambda g: f"{g.group.name}-n{g.num_vertices}")
@pytest.mark.parametrize("seed", [0, 1])
def test_rank_mod_p_matches_exact_rank(graph, seed):
    fw = realize.sample_symmetric_placement(graph, seed=seed)
    exact = realize.rank(realize.build_rigidity_matrix(fw), backend="exact")
    doc = document.graph_to_dict(graph)
    assert oracle.rank_mod_p(oracle.rigidity_matrix(doc, fw.p, fw.q)) == exact.rank


def test_negative_control_is_rank_deficient():
    graph = negative_control()
    fw = realize.sample_symmetric_placement(graph, seed=0)
    doc = document.graph_to_dict(graph)
    assert oracle.rank_mod_p(oracle.rigidity_matrix(doc, fw.p, fw.q)) < 6


def test_rank_mod_p_sees_a_multiple_of_p_as_zero():
    assert oracle.rank_mod_p([[oracle.PRIME, 0], [0, 3]]) == 1
    assert oracle.rank_mod_p([[2, 4], [1, 2]]) == 1

