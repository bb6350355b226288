"""Command line interface.

Subcommands read a graph document from a file (or ``-`` for stdin) and
write one JSON document to stdout.  Exit codes: 0 for an affirmative
verdict, 1 for a negative verdict, 2 for input errors, input that cannot
be read or decoded, and output that cannot be written.  The ``--seed``
flags default to the SLCRIGID_SEED environment variable, then 0; given the
same inputs and seed the output bytes are identical.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

from . import document
from .errors import InputError, ReductionDeadEnd, SchemaError, SlcrigidError
from .henneberg import apply_extension, certified_group, decompose, generate_random
from .realize import (
    DEFAULT_SCALE,
    DEFAULT_TOL,
    DEFAULT_TRIALS,
    build_rigidity_matrix,
    classify,
    rank,
    sample_symmetric_placement,
)
from .selftest import DEFAULT_GROUPS, run_selftest
from .symcheck import check_tight
from .svgout import render_svg


def _read_text(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise SchemaError(f"cannot decode {path}: {err.reason}") from None


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SLCRIGID_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise SchemaError(f"SLCRIGID_SEED must be an integer, got {env!r}") from None


def _emit(doc: dict) -> None:
    _write(document.dumps(doc))


def _write(text: str) -> None:
    """Write the text to stdout's file descriptor until every byte is in.
    A pipe whose reader leaves mid-write takes part of a write and raises
    nothing, and ``sys.stdout`` does not write the rest; written again, the
    rest raises BrokenPipeError.  A stdout with no descriptor, one
    redirected inside the process, takes the text as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, io.UnsupportedOperation):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode())
    while data:
        data = data[os.write(fd, data) :]


def cmd_check(args) -> int:
    graph, _ = document.parse_graph(_read_text(args.file))
    report = check_tight(graph)
    out = {
        "group": graph.group.name,
        "num_vertices": graph.num_vertices,
        "num_rows": graph.num_rows,
    }
    out.update(document.tight_report_to_dict(report))
    _emit(out)
    return 0 if report.tight else 1


def cmd_rank(args) -> int:
    graph, framework = document.parse_graph(_read_text(args.file))
    # a given placement is ranked once, exactly unless its coordinates are
    # floats, a sampled one exactly: each reads only its own options, and
    # only the float cut reads --tol
    placement = "sampled" if framework is None else "given"
    for name in ("tol",) if framework is None else ("trials", "seed"):
        if getattr(args, name) is not None:
            raise InputError(f"--{name} is not read when ranking a {placement} placement")
    if framework is not None:
        if args.tol is not None and framework.exact:
            raise InputError("--tol is not read by an exact rank")
        tol = DEFAULT_TOL if args.tol is None else args.tol
        report = rank(build_rigidity_matrix(framework), tol=tol)
    else:
        trials = DEFAULT_TRIALS if args.trials is None else args.trials
        report = classify(graph, trials=trials, seed=_seed(args))
    out = {"group": graph.group.name, "placement": placement}
    out.update(document.rank_report_to_dict(report))
    _emit(out)
    return 0 if report.classification == "isostatic" else 1


def cmd_verdict(args) -> int:
    graph, _ = document.parse_graph(_read_text(args.file))
    tight = check_tight(graph)
    rank_report = classify(graph, trials=args.trials, seed=_seed(args))
    certified = certified_group(graph.group)
    if not tight.tight:
        overall = "necessary-conditions-fail"
    elif certified:
        overall = "isostatic-certified"
    else:
        overall = "numeric-only"
    out = {
        "group": graph.group.name,
        "num_vertices": graph.num_vertices,
        "num_rows": graph.num_rows,
        "certified_group": certified,
        "overall": overall,
        "rank": document.rank_report_to_dict(rank_report),
    }
    out.update(document.tight_report_to_dict(tight))
    if args.trace:
        out["trace"] = None
        if tight.tight:
            try:
                out["trace"] = document.decomposition_to_dict(decompose(graph))
            except ReductionDeadEnd as err:
                out["trace_error"] = str(err)
    _emit(out)
    ok = overall == "isostatic-certified" or (
        overall == "numeric-only" and rank_report.classification == "isostatic"
    )
    return 0 if ok else 1


def cmd_generate(args) -> int:
    gen = generate_random(args.group, steps=args.steps, seed=_seed(args), base=args.base)
    framework = None
    if args.placement:
        framework = sample_symmetric_placement(gen.graph, seed=_seed(args), scale=args.scale)
    _emit(document.graph_to_dict(gen.graph, framework))
    return 0


def cmd_extend(args) -> int:
    graph, _ = document.parse_graph(_read_text(args.file))
    move = document.parse_move(args.move)
    _emit(document.graph_to_dict(apply_extension(graph, move)))
    return 0


def cmd_reduce(args) -> int:
    graph, _ = document.parse_graph(_read_text(args.file))
    _emit(document.decomposition_to_dict(decompose(graph)))
    return 0


def cmd_svg(args) -> int:
    graph, framework = document.parse_graph(_read_text(args.file))
    if framework is None:
        if not args.auto:
            raise SchemaError(
                "document has no placement; pass --auto to sample one"
            )
        framework = sample_symmetric_placement(graph, seed=_seed(args), scale=args.scale)
    text = render_svg(framework, size=args.size)
    if args.output == "-":
        _write(text)
    else:
        try:
            Path(args.output).write_text(text)
        except OSError as err:
            raise SchemaError(f"cannot write {args.output}: {err.strerror or err}") from None
    return 0


def cmd_selftest(args) -> int:
    result = run_selftest(
        groups=tuple(g.strip() for g in args.groups.split(",") if g.strip()),
        samples=args.samples,
        max_steps=args.max_steps,
        seed=_seed(args),
        dump_dir=args.dump_dir,
    )
    for line in result.lines:
        print(line)
    return 0 if result.ok else 1


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="random seed (default: SLCRIGID_SEED or 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slcrigid",
        description=(
            "Decide sparsity, tightness, and rigidity of symmetric linearly"
            " constrained frameworks in the plane."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="sparsity counts, fixed counts, characters")
    p.add_argument("file", help="graph document (JSON), or - for stdin")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rank", help="rigidity matrix rank of a placement")
    p.add_argument("file")
    p.add_argument(
        "--trials",
        type=int,
        default=None,
        help=f"sampled placements to rank (default {DEFAULT_TRIALS}); not with a given one",
    )
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"float cut (default {DEFAULT_TOL}); only for a given placement of float coordinates",
    )
    _add_seed(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("verdict", help="combinatorial + numeric verdict")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--trace", action="store_true", help="attach a construction trace")
    _add_seed(p)
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("generate", help="random tight graph from a base")
    p.add_argument("--group", required=True, help="c1, c2, c3, ..., cs, d2, ...")
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--base", default=None, help="base graph label (default: random)")
    p.add_argument("--placement", action="store_true", help="include a sampled placement")
    p.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    _add_seed(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("extend", help="apply one extension move")
    p.add_argument("file")
    p.add_argument("--move", required=True, help='JSON, e.g. {"type": "zero_two_edges", "v1": 0, "v2": 1}')
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("reduce", help="decompose a tight graph to base graphs")
    p.add_argument("file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("svg", help="render a framework picture")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    p.add_argument("--size", type=int, default=480)
    p.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    p.add_argument(
        "--auto",
        action="store_true",
        help="sample a placement when the document has none",
    )
    _add_seed(p)
    p.set_defaults(func=cmd_svg)

    p = sub.add_parser("selftest", help="randomized cross-validation of the deciders")
    p.add_argument("--groups", default=",".join(DEFAULT_GROUPS))
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--max-steps", type=int, default=6)
    p.add_argument("--dump-dir", default="failures")
    _add_seed(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: stdout goes to devnull, so that the flush at exit
        # does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2
    except ReductionDeadEnd as err:
        print(f"verdict: {err}", file=sys.stderr)
        return 1
    except InputError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 2
    except SlcrigidError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
