"""End-to-end command line runs via subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import c2_fixed_edge
from slcrigid import base_graph, document


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, inp=None, env_extra=None):
    """Run ``python -m slcrigid`` on the source tree in a child process.

    The child imports the package from this checkout's ``src`` and sees
    SLCRIGID_SEED only when ``env_extra`` sets it.
    """
    env = dict(os.environ)
    env.pop("SLCRIGID_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "slcrigid", *args],
        input=inp,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.fixture()
def lc3_file(tmp_path):
    path = tmp_path / "lc3.json"
    path.write_text(document.serialize_graph(base_graph("lc3")))
    return str(path)


@pytest.fixture()
def loose_file(tmp_path):
    g = c2_fixed_edge()
    path = tmp_path / "triangle.json"
    path.write_text(document.serialize_graph(g))
    return str(path)


def test_check_tight_graph_exits_zero(lc3_file):
    r = run_cli(["check", lc3_file])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["tight"] is True
    assert out["sparsity"]["verdict"] == "sparse-and-tight"
    assert out["characters"]["equal"] is True


def test_check_failing_graph_exits_one(loose_file):
    r = run_cli(["check", loose_file])
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert out["tight"] is False
    assert out["fixed_counts"]["passed"] is False


def test_check_reads_stdin(lc3_file):
    text = open(lc3_file).read()
    r = run_cli(["check", "-"], inp=text)
    assert r.returncode == 0


def test_check_missing_file_exits_two():
    r = run_cli(["check", "/nonexistent/nowhere.json"])
    assert r.returncode == 2
    assert r.stderr.startswith("error[")


def test_check_malformed_json_exits_two():
    r = run_cli(["check", "-"], inp="{oops")
    assert r.returncode == 2
    assert "error[schema]" in r.stderr


def test_check_output_is_byte_deterministic(lc3_file):
    a = run_cli(["check", lc3_file])
    b = run_cli(["check", lc3_file])
    assert a.stdout == b.stdout


def test_rank_isostatic_exits_zero(lc3_file):
    r = run_cli(["rank", lc3_file, "--seed", "3"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["classification"] == "isostatic"
    assert out["seed"] == 3


def test_rank_seed_from_environment(lc3_file):
    r = run_cli(["rank", lc3_file], env_extra={"SLCRIGID_SEED": "17"})
    assert json.loads(r.stdout)["seed"] == 17
    # an explicit flag wins over the environment
    r2 = run_cli(
        ["rank", lc3_file, "--seed", "4"], env_extra={"SLCRIGID_SEED": "17"}
    )
    assert json.loads(r2.stdout)["seed"] == 4


def test_rank_exact_flag(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(document.serialize_graph(base_graph("p1_fixed")))
    r = run_cli(["rank", str(path), "--exact"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["backend"] == "exact"
    assert out["classification"] == "isostatic"


def test_rank_of_a_given_placement_off_symmetry(tmp_path):
    # vertex 2 is not at -p1, so the triangle is not collinear: rank 6
    from slcrigid import Framework

    fw = Framework(c2_fixed_edge(), ((0, 0), (5, 1), (-4, -2)), ((1, 0), (2, 3), (-2, -3)))
    path = tmp_path / "moved.json"
    path.write_text(document.serialize_graph(fw.graph, framework=fw))
    r = run_cli(["rank", str(path)])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["placement"] == "given"
    assert out["rank"] == 6
    assert out["classification"] == "isostatic"


def test_rank_dependent_graph_exits_one(loose_file):
    r = run_cli(["rank", loose_file])
    assert r.returncode == 1
    assert json.loads(r.stdout)["classification"] == "dependent-flexible"


def test_verdict_certified(lc3_file):
    r = run_cli(["verdict", lc3_file])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["overall"] == "isostatic-certified"
    assert out["certified_group"] is True
    assert out["rank"]["classification"] == "isostatic"


def test_verdict_necessary_conditions_fail(loose_file):
    r = run_cli(["verdict", loose_file])
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert out["overall"] == "necessary-conditions-fail"


def test_generate_then_reduce_round_trip(tmp_path):
    r = run_cli(["generate", "--group", "c2", "--steps", "3", "--seed", "5"])
    assert r.returncode == 0
    gen_path = tmp_path / "gen.json"
    gen_path.write_text(r.stdout)
    graph, _ = document.parse_graph(r.stdout)
    assert graph.num_vertices >= 2

    trace_path = tmp_path / "trace.json"
    r2 = run_cli(["reduce", str(gen_path), "--trace", str(trace_path)])
    assert r2.returncode == 0
    out = json.loads(r2.stdout)
    assert out["total_moves"] == 3
    assert out["certified"] is True
    assert json.loads(trace_path.read_text()) == out


def test_generate_is_deterministic():
    a = run_cli(["generate", "--group", "c3", "--steps", "4", "--seed", "8"])
    b = run_cli(["generate", "--group", "c3", "--steps", "4", "--seed", "8"])
    assert a.stdout == b.stdout


def test_generate_rejects_unknown_group():
    r = run_cli(["generate", "--group", "q5", "--steps", "1"])
    assert r.returncode == 2


def test_extend_applies_a_move(lc3_file):
    r = run_cli(
        [
            "extend",
            lc3_file,
            "--move",
            '{"type": "zero_two_edges", "v1": 0, "v2": 1}',
        ]
    )
    assert r.returncode == 0
    graph, _ = document.parse_graph(r.stdout)
    assert graph.num_vertices == 6


def test_extend_rejects_invalid_move(lc3_file):
    r = run_cli(
        [
            "extend",
            lc3_file,
            "--move",
            '{"type": "zero_two_edges", "v1": 0, "v2": 0}',
        ]
    )
    assert r.returncode == 2
    assert "error[" in r.stderr


def test_reduce_rejects_non_tight_input(loose_file):
    r = run_cli(["reduce", loose_file])
    assert r.returncode == 2
    assert "error[" in r.stderr


def test_svg_requires_auto_without_a_placement(lc3_file):
    r = run_cli(["svg", lc3_file])
    assert r.returncode == 2
    assert "placement" in r.stderr


def test_svg_writes_a_picture(tmp_path, lc3_file):
    out = tmp_path / "pic.svg"
    r = run_cli(["svg", lc3_file, "--auto", "-o", str(out), "--seed", "2"])
    assert r.returncode == 0
    text = out.read_text()
    assert "<svg" in text[:200]
    r2 = run_cli(["svg", lc3_file, "--auto", "-o", str(out), "--seed", "2"])
    assert out.read_text() == text


def test_svg_renders_stored_placement_without_auto(tmp_path):
    from slcrigid import sample_symmetric_placement

    g = base_graph("lc3")
    fw = sample_symmetric_placement(g, seed=0)
    path = tmp_path / "placed.json"
    path.write_text(document.serialize_graph(g, framework=fw))
    r = run_cli(["svg", str(path), "--size", "240"])
    assert r.returncode == 0
    assert 'width="240"' in r.stdout


def test_generate_accepts_bare_base_labels():
    r = run_cli(["generate", "--group", "c3", "--base", "lc", "--steps", "4", "--seed", "7"])
    assert r.returncode == 0
    graph, _ = document.parse_graph(r.stdout)
    assert graph.num_vertices == 15


def test_selftest_quick_run(tmp_path):
    r = run_cli(
        ["selftest", "--groups", "c2", "--samples", "2", "--max-steps", "3"]
        + ["--dump-dir", str(tmp_path)]
    )
    assert r.returncode == 0
    assert "ok" in r.stdout.lower() or "pass" in r.stdout.lower()
