"""Command line surface: chordal, color, seedrun, verify, oracle, gen.

Exit codes: 0 success; 1 hole found (chordal) or a failed seed (seedrun);
2 hypothesis violation (color); 3 coloring defect (verify);
4 unsatisfiable, 5 node limit (oracle); 64 usage or file-access problems;
65 malformed input data.
"""

from __future__ import annotations

import gc
import io
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .chordal import chordality_certificate, uniform_lists
from .graph import GraphError, max_degree
from .instance_io import (MAX_VERTICES, MODELS, InfeasibleConfig, ParseError, emit_coloring,
                          emit_instance, parse_coloring, parse_instance)

# each command imports the generators, the solver and the oracle where it
# runs them, so that chordal compiles none of them and color no generators
if TYPE_CHECKING:
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


def _read(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark, which some editors write
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _write(text: str) -> None:
    # Under `python -u` the text layer writes straight to the raw file and
    # drops the count of a short write (the reader left mid-write), so write
    # what is left until a closed pipe raises; 8192 characters at a time, so
    # that no encoded copy of the whole text is held.
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.write(text)
        return
    for start in range(0, len(text), 8192):
        data = memoryview(text[start:start + 8192].encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[raw.write(data):]


def _config_from_args(args: SimpleNamespace) -> GeneratorConfig:
    from .generate import GeneratorConfig

    return GeneratorConfig(
        n=args.n, delta=args.delta, model=args.model, seed=args.seed,
        list_size=args.delta if args.list_size is None else args.list_size,
        palette=2 * args.delta if args.palette is None else args.palette)


def _cmd_chordal(args: SimpleNamespace) -> int:
    g, _ = parse_instance(_read(args.file))
    certificate = chordality_certificate(g)
    if certificate.peo is not None:
        print(" ".join(["chordal", *map(str, certificate.peo)]))
        return EXIT_OK
    assert certificate.hole is not None
    print(" ".join(["hole", *map(str, certificate.hole.cycle)]))
    return EXIT_HOLE


def _cmd_seedrun(args: SimpleNamespace) -> int:
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


def _cmd_color(args: SimpleNamespace) -> int:
    # no vertex can need more colors than the vertex cap, so a larger K only
    # costs memory
    if args.uniform is not None and not 0 <= args.uniform <= MAX_VERTICES:
        raise _UsageError(f"--uniform K must lie in 0..{MAX_VERTICES}")
    from .solver import HypothesisViolation, brooks_list_color

    g, lists = parse_instance(_read(args.file))  # by id in and out: no dicts
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
    _write(emit_coloring(phi))
    return EXIT_OK


def _cmd_verify(args: SimpleNamespace) -> int:
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


def _cmd_oracle(args: SimpleNamespace) -> int:
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
    _write(emit_coloring(result))
    return EXIT_OK


def _cmd_gen(args: SimpleNamespace) -> int:
    from .generate import generate

    text = emit_instance(*generate(_config_from_args(args)))  # the graph is freed before the write
    _write(text)
    return EXIT_OK


_GEN_OPTIONS = {"--n": (int, 30), "--delta": (int, 4), "--model": (MODELS, "tree-plus-edges"),
                "--seed": (int, 0), "--list-size": (int, None), "--palette": (int, None)}
# per command: its handler, its positionals (name, type) and its options
# {name: (type, default)}; a tuple for a type lists the choices
_GRAMMAR = {
    "chordal": (_cmd_chordal, (("file", str),), {}),
    "color": (_cmd_color, (("file", str),), {"--uniform": (int, None)}),
    "seedrun": (_cmd_seedrun, (("count", int),), _GEN_OPTIONS),
    "verify": (_cmd_verify, (("file", str), ("coloring_file", str)), {}),
    "oracle": (_cmd_oracle, (("file", str),), {"--limit": (int, 10_000_000)}),
    "gen": (_cmd_gen, (), _GEN_OPTIONS),
}
_HELP = (("-h", None), ("--help", None))
_SYNOPSIS = """\
brookscolor chordal FILE              # "chordal <order>" (exit 0) or "hole <cycle>" (exit 1)
brookscolor color FILE [--uniform K]  # "v <id> <color>" lines (exit 0), or exit 2
brookscolor seedrun N [gen flags]     # batch of generated instances, pass/fail counts
brookscolor verify FILE COLORING_FILE # "ok" (exit 0) or "defect: ..." (exit 3)
brookscolor oracle FILE [--limit N]   # exhaustive search (exit 0 / 4 unsat / 5 limit)
brookscolor gen --n N --delta D [--model M --seed S --list-size L --palette P]
"""


def _option(token: str, options: dict) -> tuple[str | None, str | None] | None:
    """How argparse read a token before the first '--': None for a
    positional, else (the option it names or None, the value after '=' or
    None)."""
    if token[:1] != "-" or token == "-":
        return None
    names = [*options, "-h", "--help"]
    name, eq, value = token.partition("=")
    if token in names:
        return token, None
    if eq and name in names:
        return name, value
    if token[1] == "-":  # a unique prefix of a long option names it
        found = [option for option in names if option.startswith(name)]
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {token!r} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[1] == "h":  # -h with more after it
        return None, None
    # a negative number, or a string with a space, is a positional
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else (None, None)


def _value(name: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _UsageError(f"argument {name}: invalid int value: {text!r}") from None
    if kind is not str and text not in kind:
        raise _UsageError(f"argument {name}: invalid choice: {text!r}"
                          f" (choose from {', '.join(map(repr, kind))})")
    return text


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """Reads argv as the argparse grammar before it (tests/reference.py)
    did; None asks for help."""
    if not argv:
        raise _UsageError("missing command")
    if argv[0] not in _GRAMMAR:
        if argv[0] != "--" and _option(argv[0], {}) in _HELP:
            return None
        raise _UsageError(f"argument command: invalid choice: {argv[0]!r}"
                          f" (choose from {', '.join(map(repr, _GRAMMAR))})")
    _, positionals, options = _GRAMMAR[argv[0]]
    args = SimpleNamespace(command=argv[0], **{
        name[2:].replace("-", "_"): default for name, (_, default) in options.items()})
    # After the first '--' every token is a positional. The '--' goes with
    # the positional just before it, else with the next one; a later '--'
    # alone is no positional, where argparse gave [].
    filled, extras, ended, pending, after_positional = 0, [], False, False, False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--" and not ended:
            ended, pending = True, not after_positional
            continue
        option = None if ended else _option(token, options)
        if option in _HELP:
            return None
        after_positional = option is None and filled < len(positionals)
        if after_positional and (token != "--" or pending):
            name, kind = positionals[filled]
            setattr(args, name, _value(name, kind, token))
            filled, pending = filled + 1, False
        elif option is None or option[0] not in options:  # unknown, or help given a value
            extras.append(token)
        else:
            name, value = option
            if value is None:
                value = next(tokens, "--")  # the end of argv, like a '--', is no value
                if value == "--" or _option(value, options):
                    raise _UsageError(f"argument {name}: expected one argument after {token!r}")
            setattr(args, name[2:].replace("-", "_"), _value(name, options[name][0], value))
    if filled < len(positionals):
        missing = ", ".join(name for name, _ in positionals[filled:])
        raise _UsageError(f"the following arguments are required: {missing}")
    if extras or pending:
        extras += ["--"] * pending
        raise _UsageError(f"unrecognized arguments: {' '.join(map(repr, extras))}")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:  # -h or --help
            _write(_SYNOPSIS)
            code = EXIT_OK
        else:
            code = _GRAMMAR[args.command][0](args)
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
