"""Command line front end.

Subcommands:

    search     all restricted bases of length k and range n
    extremal   n2*(k) and every basis attaining it
    enumerate  admissible bases of length k with range >= a threshold
    verify     classify bases read from a file
    oracle     brute-force reference for small k

Results go to stdout (or --out); progress and timing go to stderr, so
result output is byte-identical across runs and thread counts.  Exit
codes: 0 success, 1 no result (or failed verification), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import __version__
from .catalog import (
    DEFAULT,
    CatalogMissingError,
    PrefixCache,
    render_report,
)
from .core import classify, format_basis, read_bases
from .enumeration import EnumSpec, enumerate_admissible, save_enumeration
from .mitm import SearchTarget, find_extremal_restricted, search_restricted
from .oracle import DEFAULT_LIMIT, brute_force, format_result

CACHE_ENV = "ADDBASIS_CACHE_DIR"


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


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


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_search(args) -> int:
    target = SearchTarget.create(args.k, args.n, args.pivot)
    report = search_restricted(
        target,
        processes=args.threads,
        cache=_cache_from(args),
        log=_log,
    )
    _emit(render_report(report, args.format), args.out)
    return 0 if report.bases else 1


def cmd_extremal(args) -> int:
    report = find_extremal_restricted(
        args.k,
        args.pivot,
        processes=args.threads,
        cache=_cache_from(args),
        log=_log,
    )
    known = DEFAULT.restricted.get(args.k)
    if args.format == "json":
        doc = {
            "k": report.k,
            "n2_star": report.n,
            "pivot": report.pivot,
            "count": report.count,
            "bases": [list(b) for b in report.bases],
            "catalog_n2_star": known,
            "match": None if known is None else known == report.n,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    lines = [f"n2*({report.k}) = {report.n}"]
    if args.out:
        _emit(render_report(report, args.format), args.out)
    else:
        lines.append(render_report(report, args.format).rstrip("\n"))
    if known is not None:
        verdict = "MATCH" if known == report.n else "MISMATCH"
        lines.append(f"{verdict}: catalog n2*({report.k}) = {known}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_enumerate(args) -> int:
    spec = EnumSpec(args.k, args.min_range)
    bases = enumerate_admissible(spec, processes=args.threads)
    if args.format == "json":
        collected = [list(b) for b in bases]
        doc = {
            "k": spec.length,
            "min_range": spec.min_range,
            "version": __version__,
            "count": len(collected),
            "bases": collected,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    if args.out:
        count = save_enumeration(args.out, spec, _heartbeat(bases))
        _log(f"wrote {count} bases to {args.out}")
        return 0
    sys.stdout.write(f"# k={spec.length}\n# min_range={spec.min_range}\n# version={__version__}\n")
    count = 0
    for basis in _heartbeat(bases):
        sys.stdout.write(format_basis(basis) + "\n")
        count += 1
    sys.stdout.write(f"# count={count}\n")
    return 0


def _heartbeat(bases, every: int = 1_000_000):
    count = 0
    for basis in bases:
        count += 1
        if count % every == 0:
            _log(f"... {count} bases")
        yield basis


def cmd_verify(args) -> int:
    try:
        if args.path == "-":
            _, bases = read_bases(sys.stdin, args.path)
        else:
            with open(args.path) as f:
                _, bases = read_bases(f, args.path)
    except ValueError as exc:
        _log(f"error: {exc}")
        return 1
    records = [(basis, classify(basis)) for basis in bases]
    if args.format == "json":
        doc = {
            "bases": [
                {
                    "elements": list(b),
                    "range": cls.range,
                    "admissible": cls.admissible,
                    "restricted": cls.restricted,
                    "symmetric": cls.symmetric,
                }
                for b, cls in records
            ]
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    lines_out = []
    for basis, cls in records:
        parts = [
            f"range {cls.range}",
            "admissible" if cls.admissible else "not admissible",
            "restricted" if cls.restricted else "not restricted",
            "symmetric" if cls.symmetric else "asymmetric",
        ]
        lines_out.append(f"{format_basis(basis)}: " + ", ".join(parts))
    _emit("\n".join(lines_out) + "\n" if lines_out else "", args.out)
    return 0


def cmd_oracle(args) -> int:
    result = brute_force(args.k, limit=args.oracle_limit)
    if args.format == "json":
        doc = {
            "k": result.length,
            "n2": result.n2,
            "extremal": [list(b) for b in result.extremal],
            "n2_restricted": result.n2_restricted,
            "extremal_restricted": [list(b) for b in result.extremal_restricted],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    _emit(format_result(result), args.out)
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
            p.add_argument("--threads", type=_threads, default=os.cpu_count() or 1,
                           help="worker processes, at most the number of cores (default: all)")
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
    p.add_argument("--oracle-limit", type=int, default=DEFAULT_LIMIT,
                   help=f"largest k the brute force will accept (default {DEFAULT_LIMIT})")
    common(p, threads=False)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CatalogMissingError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
