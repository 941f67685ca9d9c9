"""Command line surface: chordal, color, seedrun, verify, oracle, gen.

Exit codes: 0 success; 1 hole found (chordal) or a failed seed (seedrun);
2 hypothesis violation (color); 3 coloring defect (verify);
4 unsatisfiable, 5 node limit (oracle); 64 usage or file-access problems;
65 malformed input data.
"""

from __future__ import annotations

import gc
import os
import sys
from typing import TYPE_CHECKING

from .chordal import chordality_certificate, uniform_lists
from .graph import GraphError, max_degree
from .instance_io import (MAX_VERTICES, MODELS, InfeasibleConfig, ParseError, emit_coloring,
                          emit_instance, parse_coloring, parse_instance)

# each command imports the generators, the solver and the oracle where it
# runs them, so that chordal compiles none of them and color no generators
if TYPE_CHECKING:
    import argparse

    from .generate import GeneratorConfig

EXIT_OK = 0
EXIT_HOLE = 1
EXIT_SEED_FAILED = 1  # seedrun: some seed's solve raised
EXIT_HYPOTHESIS = 2
EXIT_DEFECT = 3
EXIT_UNSAT = 4
EXIT_LIMIT = 5
EXIT_USAGE = 64
EXIT_DATA = 65


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # type: ignore[override]
            raise _UsageError(message)

    parser = Parser(prog="brookscolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen_opts = argparse.ArgumentParser(add_help=False)
    gen_opts.add_argument("--n", type=int, default=30, help="vertex count")
    gen_opts.add_argument("--delta", type=int, default=4, help="max-degree cap")
    gen_opts.add_argument("--model", choices=MODELS, default="tree-plus-edges")
    gen_opts.add_argument("--seed", type=int, default=0)
    gen_opts.add_argument("--list-size", type=int,
                          help="colors per list (default: delta)")
    gen_opts.add_argument("--palette", type=int,
                          help="palette size, colors are 1..palette (default: 2*delta)")

    p = sub.add_parser("chordal", help="print an elimination order or a hole")
    p.add_argument("file")

    p = sub.add_parser("color", help="list-color an instance")
    p.add_argument("file")
    p.add_argument("--uniform", type=int, metavar="K",
                   help="use lists {1..K} everywhere, ignoring any in the file")

    p = sub.add_parser("seedrun", parents=[gen_opts],
                       help="generate and color N instances, report pass/fail counts")
    p.add_argument("count", type=int, metavar="N")

    p = sub.add_parser("verify", help="check a coloring file against an instance")
    p.add_argument("file")
    p.add_argument("coloring_file")

    p = sub.add_parser("oracle", help="exhaustive search for a list coloring")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=10_000_000, help="node limit")

    sub.add_parser("gen", parents=[gen_opts], help="write a generated instance to stdout")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _config_from_args(args: argparse.Namespace) -> GeneratorConfig:
    from .generate import GeneratorConfig

    return GeneratorConfig(
        n=args.n, delta=args.delta, model=args.model, seed=args.seed,
        list_size=args.delta if args.list_size is None else args.list_size,
        palette=2 * args.delta if args.palette is None else args.palette)


def _cmd_chordal(args: argparse.Namespace) -> int:
    g, _ = parse_instance(_read(args.file))
    certificate = chordality_certificate(g)
    if certificate.peo is not None:
        print(" ".join(["chordal", *map(str, certificate.peo)]).rstrip())
        return EXIT_OK
    assert certificate.hole is not None
    print(" ".join(["hole", *map(str, certificate.hole.cycle)]))
    return EXIT_HOLE


def _cmd_seedrun(args: argparse.Namespace) -> int:
    count = args.count
    if count < 1:
        raise _UsageError("seedrun needs a positive instance count")
    from .generate import generate
    from .solver import HypothesisViolation, brooks_list_color

    config = _config_from_args(args)
    # seed by seed, so a batch holds one instance in memory at a time
    done = failed = 0
    for seed in range(config.seed, config.seed + 100 * count + 1000):
        g, lists = generate(config._replace(seed=seed))
        try:
            brooks_list_color(g, lists)  # screens the hypotheses, verifies its own output
        except HypothesisViolation:
            continue
        except Exception as exc:  # reported per seed; the batch goes on
            failed += 1
            print(f"seed {seed} fail {type(exc).__name__}: {exc}")
        else:
            print(f"seed {seed} pass")
        done += 1
        if done == count:
            break
    else:
        raise _UsageError("could not generate enough hypothesis-satisfying instances")
    print(f"pass {count - failed} fail {failed}")
    return EXIT_OK if not failed else EXIT_SEED_FAILED


def _cmd_color(args: argparse.Namespace) -> int:
    # no vertex can need more colors than the vertex cap, so a larger K only
    # costs memory
    if args.uniform is not None and not 0 <= args.uniform <= MAX_VERTICES:
        raise _UsageError(f"--uniform K must lie in 0..{MAX_VERTICES}")
    from .solver import HypothesisViolation, brooks_list_color

    g, lists = parse_instance(_read(args.file))
    if args.uniform is not None:
        # with K > max degree every vertex has slack and the greedy gives it a
        # color of at most its degree + 1, so {1..max degree + 1} colors alike
        lists = uniform_lists(g, min(args.uniform, max_degree(g) + 1))
    if lists is None:
        raise _UsageError("instance has no color lists; add 'l' lines or pass --uniform K")
    try:
        phi = brooks_list_color(g, lists)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    sys.stdout.write(emit_coloring(phi))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import IncompleteColoring, verify_coloring

    g, lists = parse_instance(_read(args.file))
    phi = parse_coloring(_read(args.coloring_file))
    try:
        defect = verify_coloring(g, lists, phi)
    except IncompleteColoring as exc:
        print(f"defect: {exc}")
        return EXIT_DEFECT
    if defect is not None:
        print(f"defect: {defect}")
        return EXIT_DEFECT
    print("ok")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.limit < 0:
        raise _UsageError("--limit must not be negative")
    from .oracle import OracleOutcome, brute_force_list_color

    g, lists = parse_instance(_read(args.file))
    if lists is None:
        raise _UsageError("oracle needs an instance with 'l' color-list lines")
    result = brute_force_list_color(g, lists, node_limit=args.limit)
    if result is OracleOutcome.UNSATISFIABLE:
        print("unsatisfiable")
        return EXIT_UNSAT
    if result is OracleOutcome.LIMIT_EXCEEDED:
        print("limit-exceeded")
        return EXIT_LIMIT
    sys.stdout.write(emit_coloring(result))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generate import generate

    text = emit_instance(*generate(_config_from_args(args)))  # the graph is freed before the write
    sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if (sys.argv[1:] if argv is None else argv)[:1] in (["color"], ["seedrun"]):
        # compile the solver before argparse loads, so the two do not stack in peak memory
        from . import solver  # noqa: F401
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("missing command")
        handler = {
            "chordal": _cmd_chordal,
            "color": _cmd_color,
            "seedrun": _cmd_seedrun,
            "verify": _cmd_verify,
            "oracle": _cmd_oracle,
            "gen": _cmd_gen,
        }[args.command]
        code = handler(args)
        sys.stdout.flush()  # a closed pipe is reported here, not at shutdown
        return code
    except (_UsageError, InfeasibleConfig) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, GraphError, UnicodeDecodeError) as exc:
        print(f"bad input data: {exc}", file=sys.stderr)
        return EXIT_DATA


def __getattr__(name: str):
    # bench/tracing.py wraps this name; the commands import the solver's as they run
    if name != "brooks_list_color":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .solver import brooks_list_color
    return brooks_list_color


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # main has reported it; the interpreter's final flush would report
        # the output still buffered a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # The interpreter's shutdown runs full collections over every tracked
    # object, thousands before the package even loads; it skips frozen ones.
    # No object here needs its finalizer: files are closed by `with`, and
    # atexit handlers and the flush of the std streams still run. Not in
    # main, which tests and the benchmark's traced run call in process, where
    # a freeze would pin their objects for good; not os._exit, which skips
    # atexit handlers and the streams' flush; and not before the command,
    # where a frozen heap slowed a run at n = 200 000.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
