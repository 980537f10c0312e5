"""Command-line front end: point enumeration, fibers, counts, verification.

Exit codes: 0 success, 1 property failure, 2 usage or validation error,
3 resource limit hit (a size cap, memory, or stdout failing on write or
closed), 130 interrupted (Ctrl-C), 141 the reader of stdout went away (a
closed pipe, as `| head` does).  Each command's handler runs on the parsed
namespace, with the size cap in force added to it, and a report embeds that
namespace as its configuration (`_config`).

Each subcommand's options are declared once, in `COMMANDS`.  A well-formed
`<command> --name value ...` is parsed straight from that table; any other
argv (help, `--name=value`, abbreviations, repeats, values starting with
"-", invalid or missing options) goes to the argparse parser built from the
same table, which alone prints usage, help and errors.  argparse is imported
only then: it and its gettext cost a few milliseconds of every command's
start-up.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import types

from .errors import AlgebraError, NotPrime, SizeCapExceeded
from .field import is_prime, size_cap
from .isogeny import TowerParams
from .towers import count_supersingular, fiber_solutions, ihara_bound, iter_rational
from .verify import DEFAULT_GRID, SUITES, run_suite, total_failures

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERRUPT = 130  # 128 + SIGINT
EXIT_PIPE = 141  # 128 + SIGPIPE

_JSON = json.JSONEncoder(sort_keys=True)  # json.dumps with sort_keys builds one per call


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        import argparse  # an error: argparse reports it

        raise argparse.ArgumentTypeError(f"must be at least 1, got {v}")
    return v


def _params(ns) -> TowerParams:
    return TowerParams(ns.p, ns.e, ns.m, ns.j)


def _config(ns) -> dict:
    """The run configuration a report echoes: the parsed options that are
    set and the size cap in force, with format "json" and seed 0 where the
    command declares neither."""
    return {"format": "json", "seed": 0, **{k: v for k, v in vars(ns).items() if v is not None}}


def cmd_points(ns, out) -> int:
    params = _params(ns)
    pts = iter_rational(params, ns.n, ns.variant)  # the cap check runs here, before any output
    ctx = params.field(params.m)
    if ns.format == "csv":
        length = ns.n if ns.variant != "H" else ns.n - 1
        cols = ",".join(f"coord_{i + 1}" for i in range(length))
        print(f"variant,p,e,m,j,{cols},supersingular", file=out)
        text, sep = functools.cache(ctx.format_elem), ","
        frame = lambda pt: (f"{pt.variant},{params.p},{params.e},{params.m},{params.j},", f",{pt.is_supersingular()}")
    else:  # the bytes of _JSON.encode(pt.to_json_dict()), split around the coordinates at a "" one
        text, sep = functools.cache(lambda x: _JSON.encode(ctx.format_elem(x))), ", "
        frame = lambda pt: _JSON.encode(dict(pt.to_json_dict(), coords=[""])).split('""', 1)
    # each element's text and the record around the coordinates are made once
    # per run: every record has the same variant and tower, and is
    # supersingular, its coordinates lying in F_{q^m}
    head = tail = None
    for pt in pts:
        if head is None:
            head, tail = frame(pt)
        print(head + sep.join([text(x) for x in pt.coords]) + tail, file=out)
    return EXIT_OK


def cmd_fibers(ns, out) -> int:
    params = _params(ns)
    ctx = params.field(params.m)
    x = ctx.parse_elem(ns.x)
    ys = fiber_solutions(params, ctx, x)
    record = {
        "config": _config(ns),
        "x": ctx.format_elem(x),
        "solutions": [ctx.format_elem(y) for y in ys],
    }
    print(_JSON.encode(record), file=out)
    return EXIT_OK


def _digit_limit(what: str, log10: float) -> SizeCapExceeded:
    """The error for a value past the interpreter's int-to-decimal limit
    (sys.get_int_max_str_digits), raised at once if the value is known to be
    at least 10**log10 and so can never be printed."""
    limit = sys.get_int_max_str_digits()
    error = SizeCapExceeded(f"{what} has more than {limit} decimal digits")
    if limit and log10 >= limit:
        raise error
    return error


def cmd_ss_count(ns, out) -> int:
    params = _params(ns)
    # the record holds the formula (q^m-1) q^{(m-1)(n-1)}; stop before walking
    # deeper than it can be printed (the factor q^m-1 >= 3 outweighs any
    # rounding in the estimate)
    digits = (params.m - 1) * (ns.n - 1) * math.log10(params.q)
    too_long = _digit_limit(f"the level-{ns.n} count", digits)
    count, formula = count_supersingular(params, ns.n)
    record = {
        "config": _config(ns),
        "enumerated": count,
        "formula": formula,
        "match": count == formula,
    }
    try:
        text = _JSON.encode(record)
    except ValueError:  # an int past the same limit
        raise too_long from None
    print(text, file=out)
    return EXIT_OK if count == formula else EXIT_FAILURE


def cmd_verify(ns, out) -> int:
    if ns.p is not None:
        grid = ((ns.p, ns.e, ns.m, ns.j),)
    else:
        grid = DEFAULT_GRID
    report = run_suite(ns.suite, grid, seed=ns.seed)
    doc = {"config": _config(ns), "report": report}
    print(_JSON.encode(doc), file=out)
    return EXIT_OK if total_failures(report) == 0 else EXIT_FAILURE


def cmd_bound(ns, out) -> int:
    # the reduced numerator is at least the bound, about 2 p^m, so a large m is
    # refused before the arithmetic; an invalid p or m is left to ihara_bound,
    # so it stays a usage error however large m is
    valid = ns.m >= 1 and is_prime(ns.p)
    too_long = _digit_limit("the bound's numerator", ns.m * math.log10(ns.p) if valid else 0)
    v = ihara_bound(ns.p, ns.m)
    try:
        text = f"{v.numerator}/{v.denominator}"
    except ValueError:  # an int past the same limit
        raise too_long from None
    print(text, file=out)
    return EXIT_OK


# Every subcommand's help line and options, each option as its add_argument
# keywords (type or choices, default, required, help).
_TOWER = {
    "p": {"type": int, "required": True},
    "e": {"type": int, "default": 1},
    "m": {"type": int, "required": True},
    "j": {"type": int, "required": True},
}
_LEVEL = {"n": {"type": _positive_int, "required": True}}
COMMANDS = {
    "points": ("enumerate rational tower points", {
        **_TOWER, **_LEVEL,
        "variant": {"choices": ("F", "G", "H"), "required": True},
        "format": {"choices": ("json", "csv"), "default": "json"},
    }),
    "fibers": ("solve Q_x(y) = x over F_{q^m}", {
        **_TOWER, "x": {"required": True, "help": "element in canonical [d0,d1,...] form"},
    }),
    "ss-count": ("supersingular point count vs formula", {**_TOWER, **_LEVEL}),
    "verify": ("run a property-verification suite", {
        "suite": {"choices": SUITES + ("all",), "required": True},
        **{name: {"type": int} for name in "pemj"},
        "seed": {"type": int, "default": 0},
    }),
    "bound": ("exact rational point-count bound", {"p": _TOWER["p"], "m": _TOWER["m"]}),
}


def build_parser():
    """The argparse parser of `COMMANDS`."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="drinfeld-towers",
        description="Drinfeld modular tower calculator and property verifier",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help, options) in COMMANDS.items():
        sp = sub.add_parser(command, help=help)
        for name, spec in options.items():
            sp.add_argument("--" + name, **spec)
    return ap


_HANDLERS = {
    "points": cmd_points,
    "fibers": cmd_fibers,
    "ss-count": cmd_ss_count,
    "verify": cmd_verify,
    "bound": cmd_bound,
}


def fast_parse(argv) -> types.SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` gives, for an argv
    `<command> --name value ...` in which each name is declared for the
    command and given once and no value starts with "-"; None for any other
    argv, and for a value argparse would refuse or a missing required option."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    options = COMMANDS[argv[0]][1]
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        name = flag[2:]
        spec = options.get(name) if flag[:2] == "--" else None
        if spec is None or name in given or text[:1] == "-":
            return None
        if "choices" in spec and text not in spec["choices"]:
            return None
        try:
            given[name] = spec.get("type", str)(text)
        except ValueError:  # int refused the text
            return None
        except __import__("argparse").ArgumentTypeError:  # imported only here, where _positive_int refused it
            return None
    if any(spec.get("required") and name not in given for name, spec in options.items()):
        return None
    defaults = {name: spec.get("default") for name, spec in options.items()}
    return types.SimpleNamespace(command=argv[0], **{**defaults, **given})


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ns = fast_parse(argv)
    if ns is None:
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code else EXIT_OK
    if ns.command == "verify":
        if ns.suite == "roundtrip" and (ns.p, ns.e, ns.m, ns.j) != (None,) * 4:
            print("verify --suite roundtrip runs fixed cases; it takes no --p/--e/--m/--j",
                  file=sys.stderr)
            return EXIT_USAGE
        if ns.p is not None and None in (ns.m, ns.j):
            print("verify with --p also needs --m and --j", file=sys.stderr)
            return EXIT_USAGE
        if ns.p is None and (ns.e, ns.m, ns.j) != (None,) * 3:
            print("verify with --e, --m or --j also needs --p", file=sys.stderr)
            return EXIT_USAGE
        ns.e = 1 if ns.e is None else ns.e
    if sys.stdout is None:  # fd 1 was closed at start-up; print would drop the report
        print("resource limit: cannot write output: stdout is closed", file=sys.stderr)
        return EXIT_RESOURCE
    try:
        ns.size_cap = size_cap()  # the cap in force; a malformed one refuses any command
        code = _HANDLERS[ns.command](ns, sys.stdout)
        sys.stdout.flush()  # a write error surfaces here, not at interpreter exit
        return code
    except KeyboardInterrupt:
        return EXIT_INTERRUPT
    except OSError as exc:  # the handlers' only I/O is writing stdout
        # the unwritten rest goes to devnull, so the flush at exit cannot fail
        # again (Python's "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader left: as if killed by SIGPIPE, silently
            return EXIT_PIPE
        print(f"resource limit: cannot write output: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except SizeCapExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (NotPrime, ValueError, AlgebraError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
