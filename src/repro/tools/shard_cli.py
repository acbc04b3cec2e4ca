"""``repro-shard``: drive, check, and cross-check the shard plane.

Usage::

    repro-shard run --target vans --shards 4 --requests 20000
    repro-shard identity --shards 2 4            # serial vs sharded, byte-compare
    repro-shard crosscheck --level media         # vector vs scalar media engine

``run`` compiles a synthetic open-loop stream (or one read from a JSON
ops file), executes it across ``--shards`` workers, and prints the
merged ``repro.shard/1`` document.

``identity`` is the CI teeth: it runs the *same* stream serially and
under each requested shard count, strips the variant keys (plan,
engine, fork), and byte-compares the canonical JSON.  Any difference
is a determinism bug — exit ``3``.

``crosscheck`` runs the media-level stream once with the scalar
(authoritative) engine and once with the numpy-vectorized engine and
demands identical documents — the checksum gate for the batched timing
math.  Exit ``3`` on divergence.

Exit codes: ``0`` ok, ``2`` usage error, ``3`` identity/cross-check
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.common.errors import ReproError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3


def _parse_override(text: str) -> tuple:
    """``key=value`` with JSON value coercion (bare words stay strings)."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"override {text!r} is not key=value")
    key, _, raw = text.partition("=")
    try:
        value: Any = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _build_ops(args: argparse.Namespace) -> List[Dict[str, Any]]:
    if args.ops:
        try:
            with open(args.ops, "r", encoding="utf-8") as fh:
                ops = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot read ops file {args.ops}: {exc}")
        if not isinstance(ops, list):
            raise ReproError(f"ops file {args.ops} must hold a JSON list")
        return ops
    from repro.shard.stream import synthetic_stream
    return synthetic_stream(args.kind, args.requests, stride=args.stride,
                            fence_every=args.fence_every,
                            write_ratio=args.write_ratio, seed=args.seed)


def _canonical(doc: Dict[str, Any]) -> str:
    from repro.shard.executor import identity_view
    return json.dumps(identity_view(doc), sort_keys=True,
                      separators=(",", ":"))


def _run_one(args: argparse.Namespace, ops: List[Dict[str, Any]],
             shards: int, engine: str, fork: Optional[bool]
             ) -> Dict[str, Any]:
    from repro.shard.executor import run_shard_stream
    return run_shard_stream(args.target, ops, shards=shards,
                            overrides=dict(args.override or []),
                            level=args.level, engine=engine, fork=fork)


def _cmd_run(args: argparse.Namespace) -> int:
    ops = _build_ops(args)
    fork = {"auto": None, "on": True, "off": False}[args.fork]
    doc = _run_one(args, ops, args.shards, args.engine, fork)
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_identity(args: argparse.Namespace) -> int:
    ops = _build_ops(args)
    serial = _run_one(args, ops, 1, args.engine, False)
    want = _canonical(serial)
    print(f"identity: target={args.target} level={args.level} "
          f"requests={serial['counts'].get('read', 0) + serial['counts'].get('write', 0) + serial['counts'].get('write_nt', 0)} "
          f"epochs={serial['epochs']} checksum={serial['checksum']}")
    failures = 0
    for shards in args.shards:
        for fork in ((False, True) if args.forked else (False,)):
            doc = _run_one(args, ops, shards, args.engine, fork)
            mode = "forked" if fork else "in-process"
            label = f"shards={shards} ({mode}, plan {doc['plan']['effective']})"
            if _canonical(doc) == want:
                print(f"  {label}: identical")
            else:
                failures += 1
                print(f"  {label}: MISMATCH "
                      f"(checksum {doc['checksum']} vs {serial['checksum']})",
                      file=sys.stderr)
    if failures:
        print(f"\nshard identity violated in {failures} case(s)",
              file=sys.stderr)
        return EXIT_MISMATCH
    print("shard identity holds: merged output is byte-identical to serial")
    return EXIT_OK


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    ops = _build_ops(args)
    scalar = _run_one(args, ops, args.shards, "scalar", False)
    vector = _run_one(args, ops, args.shards, "vector", False)
    print(f"crosscheck: target={args.target} level={args.level} "
          f"shards={args.shards} epochs={scalar['epochs']}")
    print(f"  scalar checksum {scalar['checksum']}")
    print(f"  vector checksum {vector['checksum']}")
    if _canonical(scalar) != _canonical(vector):
        print("\nvector engine diverged from the scalar reference",
              file=sys.stderr)
        return EXIT_MISMATCH
    print("vector engine matches the scalar reference byte-for-byte")
    return EXIT_OK


def _add_stream_args(parser: argparse.ArgumentParser,
                     level_default: str = "system") -> None:
    parser.add_argument("--target", default="vans",
                        help="registry target (default: %(default)s)")
    parser.add_argument("--override", action="append", metavar="KEY=VAL",
                        type=_parse_override,
                        help="config override (repeatable; JSON values)")
    parser.add_argument("--level", default=level_default,
                        choices=["system", "media"],
                        help="execution level (default: %(default)s)")
    parser.add_argument("--ops", metavar="PATH",
                        help="JSON ops file instead of a synthetic stream")
    parser.add_argument("--kind", default="burst",
                        choices=["seq", "burst", "rand"],
                        help="synthetic stream shape (default: %(default)s)")
    parser.add_argument("--requests", type=int, default=20000,
                        help="synthetic stream length (default: %(default)s)")
    parser.add_argument("--stride", type=int, default=256)
    parser.add_argument("--fence-every", type=int, default=1024)
    parser.add_argument("--write-ratio", type=float, default=0.7)
    parser.add_argument("--seed", type=int, default=0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-shard",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a stream across shards")
    _add_stream_args(p_run)
    p_run.add_argument("--shards", type=int, default=2)
    p_run.add_argument("--engine", default="auto",
                       choices=["auto", "scalar", "vector"])
    p_run.add_argument("--fork", default="auto",
                       choices=["auto", "on", "off"],
                       help="worker processes (default: auto by cpu count)")
    p_run.set_defaults(func=_cmd_run)

    p_id = sub.add_parser(
        "identity", help="byte-compare serial vs sharded output")
    _add_stream_args(p_id)
    p_id.add_argument("--shards", type=int, nargs="+", default=[2, 4],
                      help="shard counts to compare against serial "
                           "(default: %(default)s)")
    p_id.add_argument("--engine", default="scalar",
                      choices=["auto", "scalar", "vector"],
                      help="engine for every run (default: %(default)s so "
                           "the check isolates sharding, not vectorization)")
    p_id.add_argument("--forked", action="store_true",
                      help="also check the forked-worker execution path")
    p_id.set_defaults(func=_cmd_identity)

    p_cc = sub.add_parser(
        "crosscheck", help="vector vs scalar media-engine equivalence")
    _add_stream_args(p_cc, level_default="media")
    p_cc.add_argument("--shards", type=int, default=1)
    p_cc.set_defaults(func=_cmd_crosscheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
