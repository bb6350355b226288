"""End-to-end command line runs via subprocess."""

import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import c2_fixed_edge
from slcrigid import (
    base_graph,
    check_framework,
    check_tight,
    classify,
    document,
    enumerate_reductions,
    generate_random,
    is_tight,
    sample_symmetric_placement,
    subset_audit,
)
from slcrigid.cli import build_parser, main


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, inp=None, env_extra=None, stdout=subprocess.PIPE):
    """Run ``python -m slcrigid`` on the source tree in a child process.

    The child imports the package from this checkout's ``src`` and sees
    SLCRIGID_SEED only when ``env_extra`` sets it; its stdout is captured
    unless ``stdout`` names another file descriptor.
    """
    return subprocess.run(
        [sys.executable, "-m", "slcrigid", *args],
        input=inp,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(env_extra),
        timeout=120,
    )


def _child_env(env_extra=None):
    """The environment ``run_cli`` gives its child."""
    env = dict(os.environ)
    env.pop("SLCRIGID_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return env


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
    text = Path(lc3_file).read_text()
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


def test_check_of_a_file_that_does_not_decode_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    r = run_cli(["check", str(path)])
    assert r.returncode == 2
    assert r.stderr.startswith("error[schema]")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("steps", [3, 500])
def test_generate_into_a_closed_pipe_exits_two(steps):
    # a pipe whose reader has gone, small output failing at the last flush
    # and large output at a write
    read, write = os.pipe()
    os.close(read)
    try:
        r = run_cli(["generate", "--group", "c2", "--steps", str(steps)], stdout=write)
    finally:
        os.close(write)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")
    assert len(r.stderr.splitlines()) == 1
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["generate", "svg"])
def test_a_pipe_closed_after_one_byte_exits_two(command, tmp_path):
    # the output (a document of 86,560 bytes, a picture of 376,253) does
    # not fit in the pipe, so the reader leaves while the child is writing:
    # a partial write must not pass for a whole one
    args = ["generate", "--group", "c2", "--steps", "500"]
    if command == "svg":
        path = tmp_path / "g.json"
        path.write_text(run_cli(args).stdout)
        args = ["svg", str(path), "--auto"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "slcrigid", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=_child_env(),
    )
    try:
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    finally:
        proc.kill()
        proc.wait()
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_main_writes_to_a_stdout_redirected_in_the_process(lc3_file):
    # a stdout with no file descriptor takes the same document
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", lc3_file]) == 0
    assert out.getvalue() == run_cli(["check", lc3_file]).stdout


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
    # the coordinates pick the backend: no flag spells it
    path = tmp_path / "p1.json"
    path.write_text(document.serialize_graph(base_graph("p1_fixed")))
    r = run_cli(["rank", str(path)])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["backend"] == "exact"
    assert out["classification"] == "isostatic"
    for flag in (["--exact"], ["--backend", "exact"]):
        r = run_cli(["rank", str(path), *flag])
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in r.stderr


def test_rank_rejects_exact_with_a_backend(lc3_file):
    # --exact used to win silently over --backend float; both are unknown
    for backend in ("float", "exact"):
        r = run_cli(["rank", lc3_file, "--exact", "--backend", backend])
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"unrecognized arguments: --exact --backend {backend}" in r.stderr


def test_sampled_placements_are_ranked_exactly_by_default(tmp_path):
    # the README's c3 document; --backend exact used to refuse non-integral groups
    gen = run_cli(["generate", "--group", "c3", "--base", "lc", "--steps", "4", "--seed", "7"])
    path = tmp_path / "g.json"
    path.write_text(gen.stdout)
    r = run_cli(["rank", str(path)])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["backend"] == "exact"
    assert out["classification"] == "isostatic"
    assert out["trial_ranks"] == [30]
    r = run_cli(["verdict", str(path)])
    assert r.returncode == 0
    assert json.loads(r.stdout)["rank"]["backend"] == "exact"
    # the float cut drives no verdict: the option is gone
    r = run_cli(["verdict", str(path), "--backend", "float"])
    assert r.returncode == 2
    assert r.stdout == ""

    # a given float placement keeps the float rank
    gen = run_cli(["generate", "--group", "c3", "--steps", "4", "--seed", "7", "--placement"])
    path.write_text(gen.stdout)
    assert json.loads(run_cli(["rank", str(path)]).stdout)["backend"] == "float"


def test_tight_c2_graph_at_301_vertices_gets_an_exact_verdict(tmp_path):
    # the float cut called this isostatic graph dependent-flexible (trial
    # ranks 600, 600, 601 of 602); no verdict path offers it any more
    graph = generate_random("c2", steps=150, seed=2).graph
    assert graph.num_vertices == 301
    path = tmp_path / "g.json"
    path.write_text(document.serialize_graph(graph))
    r = run_cli(["verdict", str(path)])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["overall"] == "isostatic-certified"
    assert out["rank"]["backend"] == "exact"
    assert out["rank"]["rank"] == 602
    for command, flag in (("verdict", "--backend=float"), ("verdict", "--tol=1e-9"), ("rank", "--backend=float")):
        r = run_cli([command, str(path), flag])
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"unrecognized arguments: {flag}" in r.stderr
    with pytest.raises(TypeError):
        classify(graph, backend="float")
    assert list(inspect.signature(classify).parameters) == ["graph", "trials", "seed"]
    # a given integer placement, as `generate --placement` writes it, is
    # ranked exactly; the float cut says 601 of 602 there
    fw = sample_symmetric_placement(graph, seed=2)
    path.write_text(document.serialize_graph(graph, framework=fw))
    r = run_cli(["rank", str(path)])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert (out["placement"], out["backend"], out["rank"]) == ("given", "exact", 602)
    assert out["classification"] == "isostatic"


def test_given_integer_placement_at_301_vertices_is_ranked_exactly_by_default(tmp_path):
    # `generate --group c2 --steps 150 --seed 2 --placement | rank -` printed
    # float rank 601 of 602, dependent-flexible, with exit 1
    gen = run_cli(["generate", "--group", "c2", "--steps", "150", "--seed", "2", "--placement"])
    assert gen.returncode == 0
    r = run_cli(["rank", "-"], inp=gen.stdout)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert (out["placement"], out["backend"], out["rank"]) == ("given", "exact", 602)
    assert out["classification"] == "isostatic"
    # the float cut ranks the same points written as floats, and only it
    # reads --tol
    d = json.loads(gen.stdout)
    d["placement"]["p"] = [[float(x), float(y)] for x, y in d["placement"]["p"]]
    r = run_cli(["rank", "-", "--tol", "1e-9"], inp=json.dumps(d))
    assert json.loads(r.stdout)["backend"] == "float"
    r = run_cli(["rank", "-", "--tol", "1e-9"], inp=gen.stdout)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error[input]: --tol is not read by an exact rank\n"


def test_rank_refuses_the_options_its_placement_does_not_read(tmp_path, lc3_file):
    # a given placement is ranked once, as it stands: --trials 0 --seed 5
    # used to exit 0 with a float rank
    fw = sample_symmetric_placement(base_graph("lc3"), seed=0)
    placed = tmp_path / "placed.json"
    placed.write_text(document.serialize_graph(fw.graph, framework=fw))
    for args, option in (
        ([str(placed), "--trials", "0", "--seed", "5"], "--trials"),
        ([str(placed), "--trials", "3"], "--trials"),
        ([str(placed), "--seed", "5"], "--seed"),
        ([lc3_file, "--tol", "1e-6"], "--tol"),
    ):
        r = run_cli(["rank", *args])
        assert r.returncode == 2, args
        assert r.stdout == ""
        assert f"error[input]: {option} is not read" in r.stderr, args
    # what each placement reads still works, and SLCRIGID_SEED stays a default
    for args in ([str(placed), "--tol", "1e-6"], [lc3_file, "--trials", "2", "--seed", "1"]):
        r = run_cli(["rank", *args], env_extra={"SLCRIGID_SEED": "9"})
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["classification"] == "isostatic"


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

    r2 = run_cli(["reduce", str(gen_path)])
    assert r2.returncode == 0
    out = json.loads(r2.stdout)
    assert out["total_moves"] == 3
    assert out["certified"] is True


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


def test_extend_applies_a_cycle_edge(lc3_file):
    r = run_cli(["extend", lc3_file, "--move", '{"type": "cycle_edge", "v1": 0, "step": 1}'])
    assert r.returncode == 0
    graph, _ = document.parse_graph(r.stdout)
    assert graph.num_vertices == 6
    # the new orbit is one triangle, and each of its vertices has one spoke
    assert graph.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5))
    r = run_cli(["reduce", "-"], inp=r.stdout)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["total_moves"] == 1
    assert out["components"][0]["moves"] == [{"type": "cycle_edge", "v1": 0, "step": 1}]


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


def test_svg_to_a_path_that_cannot_be_written_exits_two(tmp_path, lc3_file):
    r = run_cli(["svg", lc3_file, "--auto", "-o", str(tmp_path / "missing" / "x.svg")])
    assert r.returncode == 2
    assert r.stderr.startswith("error[schema]: cannot write")
    assert "Traceback" not in r.stderr


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


def _c2_placement_with(tmp_path, number: str) -> str:
    """A c2 3/0 placement document whose first coordinate is written as
    ``number``, a JSON token that ``json.loads`` reads as a float."""
    g = generate_random("c2", steps=3, seed=0).graph
    d = document.graph_to_dict(g, sample_symmetric_placement(g, seed=0))
    d["placement"]["p"][0][0] = "NUMBER"
    path = tmp_path / "placed.json"
    path.write_text(document.dumps(d).replace('"NUMBER"', number))
    return str(path)


def test_rank_refuses_a_nan_placement(tmp_path):
    # the SVD raised an uncaught LinAlgError, exit 1 ("not isostatic")
    r = run_cli(["rank", _c2_placement_with(tmp_path, "NaN")])
    assert r.returncode == 2
    assert r.stderr == "error[schema]: placement.p[0] must be a finite number\n"


def test_rank_refuses_an_infinite_placement(tmp_path):
    # it reported rank 0, dependent-flexible; 1e400 reads as infinity
    for number in ("Infinity", "-Infinity", "1e400"):
        r = run_cli(["rank", _c2_placement_with(tmp_path, number)])
        assert r.returncode == 2, number
        assert r.stdout == ""
        assert r.stderr == "error[schema]: placement.p[0] must be a finite number\n"


def test_svg_refuses_a_non_finite_placement(tmp_path):
    # the picture held x1="nan"
    for number in ("NaN", "Infinity"):
        r = run_cli(["svg", _c2_placement_with(tmp_path, number)])
        assert r.returncode == 2, number
        assert r.stdout == ""
        assert r.stderr.startswith("error[schema]: ")


def _c2_placement_far_out(tmp_path, signs) -> str:
    """A c2 3/0 placement document whose vertex i lies at signs[i] *
    (1e308, 1e308): finite coordinates whose float arithmetic overflows."""
    g = generate_random("c2", steps=3, seed=0).graph
    d = document.graph_to_dict(g, sample_symmetric_placement(g, seed=0))
    for i, sign in enumerate(signs):
        d["placement"]["p"][i] = [sign * 1e308] * 2
    path = tmp_path / "far.json"
    path.write_text(document.dumps(d))
    return str(path)


def test_rank_refuses_a_placement_that_overflows(tmp_path):
    # it printed "largest_rejected": Infinity, not JSON, with exit 1; the
    # matrix entries overflow too when an edge's ends lie 2e308 apart
    for signs, what in [((1, -1), "the largest singular value"), ((1, -1, -1, 1), "a rigidity-matrix entry")]:
        r = run_cli(["rank", _c2_placement_far_out(tmp_path, signs)])
        assert r.returncode == 2, signs
        assert r.stdout == ""
        assert r.stderr == f"error: {what} is not finite: the placement overflows\n"


def test_svg_refuses_a_placement_that_overflows(tmp_path):
    # it wrote nan 10 times, with exit 0
    r = run_cli(["svg", _c2_placement_far_out(tmp_path, (1, -1))])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: the placement's span is not finite\n"


def _c2_placement_past_floats(tmp_path, mixed: bool) -> str:
    """A c2 3/0 placement document with p[1][0] = 10**400, an integer past
    the float range, and with p[0][0] = 0.5 when ``mixed``."""
    g = generate_random("c2", steps=3, seed=0).graph
    d = document.graph_to_dict(g, sample_symmetric_placement(g, seed=0))
    d["placement"]["p"][1][0] = 10**400
    if mixed:
        d["placement"]["p"][0][0] = 0.5
    path = tmp_path / "huge.json"
    path.write_text(document.dumps(d))
    return str(path)


def test_an_integer_past_the_float_range_is_exact(tmp_path):
    # rank and svg printed an OverflowError traceback with exit 1: the
    # document reader asked math.isfinite of the int
    path = _c2_placement_past_floats(tmp_path, mixed=False)
    r = run_cli(["rank", path])
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert (out["backend"], out["rank"], out["classification"]) == ("exact", 16, "isostatic")
    r = run_cli(["svg", path])
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: the placement's span is not finite\n"
    # beside a float coordinate it is a float, and not a finite one
    path = _c2_placement_past_floats(tmp_path, mixed=True)
    for command in ("rank", "svg"):
        r = run_cli([command, path])
        assert r.returncode == 2, command
        assert r.stdout == ""
        assert r.stderr == "error[index]: float coordinates must be finite\n"


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


def _exits_with_index_error(r):
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error[index]" in r.stderr
    assert "Traceback" not in r.stderr


def test_nonpositive_scale_is_refused_where_it_is_used(tmp_path, lc3_file):
    # --scale 0 used to hang drawing nonzero coordinates from [0, 0], and a
    # negative scale escaped as a ValueError traceback
    pic = str(tmp_path / "pic.svg")
    for scale in ("0", "-3"):
        for args in (
            ["generate", "--group", "c2", "--steps", "2", "--placement"],
            ["svg", lc3_file, "--auto", "-o", pic],
        ):
            _exits_with_index_error(run_cli(args + ["--scale", scale]))
    # --size 0 or below wrote an SVG with an empty or negative viewBox
    for size in ("0", "-5"):
        _exits_with_index_error(run_cli(["svg", lc3_file, "--auto", "-o", pic, "--size", size]))
    # residue samples draw no coordinate from the scale, and rank takes none
    fw = sample_symmetric_placement(base_graph("lc3"), scale=0, modular=True)
    assert check_framework(fw) == ()
    r = run_cli(["rank", lc3_file, "--scale", "1"])
    assert r.returncode == 2
    assert "unrecognized arguments: --scale" in r.stderr

    # the float cut: a negative tolerance used to die in a TypeError, NaN
    # printed "tolerance": NaN with rank 0, and infinity rank 0
    fw = sample_symmetric_placement(base_graph("lc3"), seed=0)
    placed = tmp_path / "placed.json"
    placed.write_text(document.serialize_graph(fw.graph, framework=fw))
    for tol in ("-1", "nan", "inf"):
        _exits_with_index_error(run_cli(["rank", str(placed), f"--tol={tol}"]))
    # a sampled placement is ranked exactly, which reads no tolerance: the
    # flag, once ignored, is refused
    r = run_cli(["rank", lc3_file, "--tol=-1"])
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error[input]: --tol" in r.stderr


def test_selftest_refuses_bad_sizes(tmp_path):
    for args in (["--max-steps", "0"], ["--samples", "-1"]):
        r = run_cli(["selftest", "--groups", "c2", "--dump-dir", str(tmp_path)] + args)
        _exits_with_index_error(r)


def test_the_options_each_subcommand_takes():
    # the input picks the sparsity decider and the rank engine, so no option
    # selects either, and reduce writes its trace to stdout alone
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [a.option_strings[-1] for a in p._actions if a.option_strings and a.dest != "help"]
        for name, p in sub.choices.items()
    }
    assert options == {
        "check": [],
        "rank": ["--trials", "--tol", "--seed"],
        "verdict": ["--trials", "--trace", "--seed"],
        "generate": ["--group", "--steps", "--base", "--placement", "--scale", "--seed"],
        "extend": ["--move"],
        "reduce": [],
        "svg": ["--output", "--size", "--scale", "--auto", "--seed"],
        "selftest": ["--groups", "--samples", "--max-steps", "--dump-dir", "--seed"],
    }
    assert sum(map(len, options.values())) == 23
    for f in (check_tight, is_tight, enumerate_reductions):
        assert list(inspect.signature(f).parameters) == ["graph"], f.__name__
    assert list(inspect.signature(subset_audit).parameters) == ["num_vertices", "edges", "loops"]
