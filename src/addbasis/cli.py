"""Command line front end.

Subcommands:

    search     all restricted bases of length k and range n
    extremal   n2*(k) and every basis attaining it
    enumerate  admissible bases of length k with range >= a threshold
    verify     classify bases read from a file
    oracle     brute-force reference for small k

Results go to stdout (or --out); progress and timing go to stderr, so
result output is byte-identical across runs and thread counts; --out is
opened before any work and written atomically.  Exit codes: 0 success, 1
no result, failed verification or closed stdout, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import IO, Sequence

from . import __version__
from .catalog import DEFAULT, CatalogMissingError, PrefixCache, stream_header
from .core import _template, atomic_write, classify, read_bases, write_bases
from .enumeration import EnumSpec, Workers, enumerate_admissible
from .mitm import SearchReport, SearchTarget, find_extremal_restricted, search_restricted

CACHE_ENV = "ADDBASIS_CACHE_DIR"


class _Failed(Exception):
    """A check on the input failed: exit 1, and --out is not written."""


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, so `taskset -c 1` gives 1, else all cores."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads(text: str) -> int:
    cores = os.cpu_count() or 1
    try:
        value = int(text)
        if not 1 <= value <= cores:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a worker count between 1 and {cores} (the number of cores), got {text}"
        ) from None
    return value


def _cache_from(args) -> PrefixCache | None:
    directory = args.cache_dir or os.environ.get(CACHE_ENV)
    return PrefixCache(directory) if directory else None


def cmd_search(args, out: IO[str]) -> int:
    target = SearchTarget.create(args.k, args.n, args.pivot)
    with Workers(args.threads) as workers:
        report = search_restricted(
            target,
            workers=workers,
            cache=_cache_from(args),
            log=_log,
        )
    _write_report(out, args.format, report)
    return 0 if report.bases else 1


def _write_report(out: IO[str], fmt: str, report: SearchReport) -> None:
    """A report: the header k, n, pivot, count, then the bases."""
    header = {"k": report.k, "n": report.n, "pivot": report.pivot, "count": report.count}
    _write_document(out, fmt, header, report.bases)


def _write_document(out: IO[str], fmt: str, header: dict, bases) -> None:
    """Write a header and bases of header["k"] + 1 elements each: as text
    through core.write_bases, or as json.dumps({**header, "bases": ...},
    indent=2) one basis at a time."""
    if fmt == "text":
        write_bases(out, header, bases)
        return
    template = _json_template(["%s"] * (header["k"] + 1), 2)
    _write_json_bases(out.write, header, (template % b for b in bases))


def cmd_extremal(args, out: IO[str]) -> int:
    # the descent opens the one Workers of the command
    report = find_extremal_restricted(
        args.k,
        args.pivot,
        processes=args.threads,
        cache=_cache_from(args),
        log=_log,
    )
    known = DEFAULT.restricted.get(args.k)
    if args.format == "json":
        import json

        doc = {
            "k": report.k,
            "n2_star": report.n,
            "pivot": report.pivot,
            "count": report.count,
            "bases": [list(b) for b in report.bases],
            "catalog_n2_star": known,
            "match": None if known is None else known == report.n,
        }
        out.write(json.dumps(doc, indent=2) + "\n")
        return 0
    # the summary lines stay on stdout; the report goes to --out when given
    sys.stdout.write(f"n2*({report.k}) = {report.n}\n")
    _write_report(out, "text", report)
    if known is not None:
        verdict = "MATCH" if known == report.n else "MISMATCH"
        sys.stdout.write(f"{verdict}: catalog n2*({report.k}) = {known}\n")
    return 0


def cmd_enumerate(args, out: IO[str]) -> int:
    spec = EnumSpec(args.k, args.min_range)
    header = stream_header(spec.length, spec.min_range)
    with Workers(args.threads) as workers:
        bases = _heartbeat(enumerate_admissible(spec, workers=workers))
        if args.format == "json":
            # `count` comes before `bases`, so the stream is held, but not a
            # second copy of it as lists or as one document string
            bases = list(bases)
            header["count"] = len(bases)
        _write_document(out, args.format, header, bases)
    return 0


def _heartbeat(bases, every: int = 1_000_000):
    count = 0
    for basis in bases:
        count += 1
        if count % every == 0:
            _log(f"... {count} bases")
        yield basis


def cmd_verify(args, out: IO[str]) -> int:
    try:
        if args.path == "-":
            _, bases = read_bases(sys.stdin, args.path)
        else:
            with open(args.path) as f:
                _, bases = read_bases(f, args.path)
    except ValueError as exc:
        raise _Failed(exc) from None
    # every read error comes before any output; then one line per basis,
    # from one `%` template per basis length
    if args.format == "json":
        admissible = restricted = symmetric = {True: "true", False: "false"}

        def template(n: int) -> str:
            record = {"elements": ["%s"] * n, "range": "%s",
                      "admissible": "%s", "restricted": "%s", "symmetric": "%s"}
            return _json_template(record, 2)
    else:
        admissible = {True: "admissible", False: "not admissible"}
        restricted = {True: "restricted", False: "not restricted"}
        symmetric = {True: "symmetric", False: "asymmetric"}

        def template(n: int) -> str:
            return _template(n) + ": range %s, %s, %s, %s\n"

    templates: dict[int, str] = {}

    def lines():
        for basis in bases:
            n = len(basis)
            line = templates.get(n)
            if line is None:
                line = templates[n] = template(n)
            cls = classify(basis)
            yield line % (
                *basis, cls.range, admissible[cls.admissible], restricted[cls.restricted], symmetric[cls.symmetric]
            )

    if args.format == "json":
        _write_json_bases(out.write, {}, lines())
    else:
        out.writelines(lines())
    return 0


def _json_template(value, depth: int) -> str:
    """A `%` template of json.dumps(value, indent=2), with each "%s"
    string in value made a bare `%s` field and each line after the first
    indented by `depth` more levels, as the layout of json.dumps places
    a value nested that deep."""
    import json

    text = json.dumps(value, indent=2).replace('"%s"', "%s")
    return text.replace("\n", "\n" + "  " * depth)


def _write_json_bases(write, header: dict, items) -> None:
    """Write json.dumps({**header, "bases": [...]}, indent=2) + "\n" one
    item at a time; each item is an element of "bases" already laid out
    two levels deep."""
    import json

    write("{\n")
    for key, value in header.items():
        write(f"  {json.dumps(key)}: {json.dumps(value)},\n")
    write('  "bases": [')
    sep = "\n    "
    for item in items:
        write(sep + item)
        sep = ",\n    "
    # json.dumps writes an empty list as [], a full one closes on its own line
    write("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")


def cmd_oracle(args, out: IO[str]) -> int:
    from .oracle import DEFAULT_LIMIT, brute_force, format_result

    limit = DEFAULT_LIMIT if args.oracle_limit is None else args.oracle_limit
    result = brute_force(args.k, limit=limit)
    if args.format == "json":
        import json

        doc = {
            "k": result.length,
            "n2": result.n2,
            "extremal": [list(b) for b in result.extremal],
            "n2_restricted": result.n2_restricted,
            "extremal_restricted": [list(b) for b in result.extremal_restricted],
        }
        out.write(json.dumps(doc, indent=2) + "\n")
        return 0
    out.write(format_result(result))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addbasis",
        description="Search tools for extremal restricted additive 2-bases.",
    )
    parser.add_argument("--version", action="version", version=f"addbasis {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, threads=True, out=True, cache=False):
        if threads:
            p.add_argument("--threads", type=_threads, default=_usable_cpus(),
                           help="worker processes, at most the number of cores "
                                "(default: the CPUs this process may run on)")
        if out:
            p.add_argument("--out", help="write results to this file instead of stdout")
            p.add_argument("--format", choices=("text", "json"), default="text")
        if cache:
            p.add_argument("--cache-dir",
                           help=f"directory for enumerated streams (default: ${CACHE_ENV})")

    p = sub.add_parser("search", help="all restricted bases of length k and range n")
    p.add_argument("-k", type=int, required=True, help="basis length")
    p.add_argument("-n", type=int, required=True, help="target range (even)")
    p.add_argument("--pivot", type=int, help="prefix length i, 0 < i < k-1 (default: k//2)")
    common(p, cache=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("extremal", help="n2*(k) and every basis attaining it")
    p.add_argument("-k", type=int, required=True, help="basis length")
    p.add_argument("--pivot", type=int, help="prefix length i, 0 < i < k-1 (default: k//2)")
    common(p, cache=True)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("enumerate", help="admissible bases of length k, range >= min-range")
    p.add_argument("-k", type=int, required=True, help="basis length")
    p.add_argument("--min-range", type=int, default=0, help="range threshold (default 0)")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="classify bases read from a file")
    p.add_argument("path", help="file of bases, one per line ('-' for stdin)")
    common(p, threads=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force reference for small k")
    p.add_argument("-k", type=int, required=True, help="basis length")
    # the oracle, and so oracle.DEFAULT_LIMIT, is loaded by cmd_oracle
    p.add_argument("--oracle-limit", type=int,
                   help="largest k the brute force will accept (default 10)")
    common(p, threads=False)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # an unwritable --out fails here, before any work
        with atomic_write(args.out) if args.out else nullcontext(sys.stdout) as out:
            code = args.func(args, out)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; devnull keeps the flush at exit from raising
        # again (the SIGPIPE note in the docs of Python's signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _Failed as exc:
        _log(f"error: {exc}")
        return 1
    except (ValueError, CatalogMissingError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
