"""Command-line interface.

Exit codes: 0 = analysis completed; 2 = input could not be parsed;
3 = the output contains "undecided": a capped search was exhausted or ran
out of stack, or projective uniqueness found no witness and no motion
refutation;
141 = standard output was closed before all of it was written (for example
by `| head`), 128 + SIGPIPE as a shell reports a pipe writer it ended.
Property values (true/false) never drive exit codes.  So `free --certificate`
exits 0 when it rejects the certificate, since the replay completed and
printed its verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .arrangement import Arrangement, ParseError, format_arrangement_text, hyperpolygonal, parse_arrangement_text
from .factorization import find_nice_partition, is_inductively_factored
from .formality import gen_closure, is_formal, is_lc_basis, line_closure, relation_space_dim
from .freeness import CertificateError, chi_integer_roots, is_inductively_free, verify_free_certificate
from .lattice import build_lattice, universe
from .polynomials import format_poly
from .regions import (
    enumerate_regions,
    is_simplicial_geometric,
    q_integer_product,
    simplicial_defect,
    zeta_polynomial,
    zeta_product_bases,
)
from .report import PropertyReport, _ladder, analyze, report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNDECIDED = 3
EXIT_BROKEN_PIPE = 141


def _load(path: str) -> Arrangement:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_arrangement_text(text)


def _indices(raw: str, arr: Arrangement) -> list[int]:
    """The hyperplane indices of raw, as typed; an index arr does not have is
    a ParseError."""
    try:
        idx = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad index list {raw!r}") from exc
    try:
        arr.checked_indices(idx)
    except IndexError as exc:
        raise ParseError(str(exc)) from exc
    return idx


def cmd_build(args) -> int:
    if args.n < 1:
        raise ParseError(f"family order must be a positive integer, got {args.n}")
    sys.stdout.write(format_arrangement_text(hyperpolygonal(args.n)))
    return EXIT_OK


def _print_report(rep: PropertyReport, as_json: bool) -> int:
    """Print a property report as text or JSON; exit 3 when a flag is undecided."""
    print(json.dumps(rep.to_json_dict(), indent=2) if as_json else rep.format_text())
    return EXIT_UNDECIDED if rep.undecided else EXIT_OK


def cmd_report(args) -> int:
    if args.n < 1:
        raise ParseError(f"family order must be a positive integer, got {args.n}")
    return _print_report(report(args.n), args.json)


def cmd_analyze(args) -> int:
    return _print_report(analyze(_load(args.file), label=args.file), args.json)


def cmd_chi(args) -> int:
    arr = _load(args.file)
    chi = universe(arr).chi()
    print(format_poly(chi))
    print(f"coefficients (ascending): {list(chi)}")
    return EXIT_OK


def cmd_lattice(args) -> int:
    arr = _load(args.file)
    lat = build_lattice(arr)
    print(json.dumps(lat.to_json_dict(), indent=2))
    return EXIT_OK


def cmd_regions(args) -> int:
    picks = (args.base is not None) + args.all_bases
    if args.zeta and picks != 1:
        raise ParseError("--zeta needs exactly one of --base and --all-bases")
    if picks and not args.zeta:
        raise ParseError("--base and --all-bases need --zeta")
    arr = _load(args.file)
    regs = enumerate_regions(arr)
    print(f"regions: {len(regs)}")
    if args.simplicial:
        defect = simplicial_defect(arr)
        geo = is_simplicial_geometric(regs)
        print(f"simplicial (facet-count defect {defect}): {defect == 0}")
        print(f"simplicial (extreme-ray geometry): {geo}")
    if args.zeta:
        if args.base is not None:
            try:
                z = zeta_polynomial(regs, args.base)
            except IndexError as exc:
                raise ParseError(str(exc)) from exc
            print(json.dumps({"base_index": args.base, "coefficients": list(z)}))
        elif args.all_bases:
            exps = chi_integer_roots(arr)
            if exps is None:
                print("characteristic polynomial has no integer roots; no product target")
                return EXIT_OK
            hits = zeta_product_bases(regs, exps)
            prod = q_integer_product(exps)
            print(json.dumps({
                "satisfying_bases": hits,
                "product_polynomial": list(prod),
                "exponents": list(exps),
                "region_count": len(regs),
            }))
    return EXIT_OK


def cmd_free(args) -> int:
    arr = _load(args.file)
    if args.certificate:
        try:
            cert = json.loads(Path(args.certificate).read_text())
        except OSError as exc:
            raise ParseError(f"cannot read {args.certificate}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply to decode
            raise ParseError(f"malformed certificate {args.certificate}: {exc}") from exc
        if not isinstance(cert, dict):
            raise ParseError(f"malformed certificate {args.certificate}: not a JSON object")
        try:
            replay = verify_free_certificate(arr, cert)
        except CertificateError as exc:
            print(f"certificate rejected: {exc}")
            return EXIT_OK
        print(f"free: True (certificate replay, {replay.steps} steps)")
        print(f"exponents: {list(replay.exponents)}")
        for cite in replay.cited_leaves:
            print(f"cited: {cite}")
        return EXIT_OK
    if args.inductive:
        res = is_inductively_free(arr)
        print(f"inductively free: {res.status}")
        if res.exponents:
            print(f"exponents: {list(res.exponents)}")
        print(f"nodes visited: {res.nodes_visited}")
        return EXIT_UNDECIDED if res.status == "undecided" else EXIT_OK
    rep = _ladder(arr, args.file, free_only=True)
    free = rep.properties["free"]
    print(f"free: {free.value} [{free.provenance}]")
    if rep.exponents is not None:
        print(f"exponents: {list(rep.exponents)}")
    return EXIT_UNDECIDED if free.value == "undecided" else EXIT_OK


def cmd_factor(args) -> int:
    arr = _load(args.file)
    if args.inductive:
        status, part = is_inductively_factored(arr)
        print(f"inductively factored: {status}")
        if part:
            print(f"partition: {[list(b) for b in part]}")
        return EXIT_UNDECIDED if status == "undecided" else EXIT_OK
    status, parts = find_nice_partition(arr)
    print(f"nice partition exists: {status}")
    if parts:
        print(f"partition: {[list(b) for b in parts[0]]}")
    return EXIT_UNDECIDED if status == "undecided" else EXIT_OK


def cmd_formal(args) -> int:
    arr = _load(args.file)
    if args.lc_basis is not None:
        seed = _indices(args.lc_basis, arr)
        ok = is_lc_basis(arr, seed)
        print(f"lc-basis {seed}: {ok}")
        closed, rounds = line_closure(arr, seed)
        print(f"line closure reaches {len(closed)} of {len(arr)} hyperplanes in {len(rounds)} rounds")
        return EXIT_OK
    print(f"relation space dimension: {relation_space_dim(arr)}")
    print(f"formal: {is_formal(arr)}")
    return EXIT_OK


def cmd_genclose(args) -> int:
    arr = _load(args.file)
    seed = _indices(args.seed, arr)
    gc = gen_closure(arr, seed)
    print(json.dumps({
        "schema": "hyperarr/genclose-v2",
        "seed": list(gc.seed),
        "rounds": [list(rnd) for rnd in gc.rounds],
        "generated": sorted(gc.generated),
        "covers": len(gc.generated) == len(arr),
    }, indent=2))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="hyperarr",
        description="Exact decision engine for central rational hyperplane arrangements.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", help="print the n-th hyperpolygonal arrangement file")
    sp.add_argument("n", type=int)
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("report", help="full property ladder for the n-th family member")
    sp.add_argument("n", type=int)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("analyze", help="full property ladder for an arrangement file")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("chi", help="characteristic polynomial")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_chi)

    sp = sub.add_parser("lattice", help="intersection lattice as JSON")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_lattice)

    sp = sub.add_parser("regions", help="enumerate regions; optional simpliciality and zeta")
    sp.add_argument("file")
    sp.add_argument("--simplicial", action="store_true")
    sp.add_argument("--zeta", action="store_true")
    sp.add_argument("--base", type=int, default=None)
    sp.add_argument("--all-bases", action="store_true")
    sp.set_defaults(func=cmd_regions)

    sp = sub.add_parser("free", help="the ladder's freeness decision, search, or certificate replay")
    sp.add_argument("file")
    mode = sp.add_mutually_exclusive_group()  # a search or a replay, never both
    mode.add_argument("--inductive", action="store_true")
    mode.add_argument("--certificate", default=None)
    sp.set_defaults(func=cmd_free)

    sp = sub.add_parser("factor", help="nice partitions / inductive factoredness")
    sp.add_argument("file")
    sp.add_argument("--inductive", action="store_true")
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("formal", help="formality; optionally test an lc-basis")
    sp.add_argument("file")
    sp.add_argument("--lc-basis", dest="lc_basis", default=None)
    sp.set_defaults(func=cmd_formal)

    sp = sub.add_parser("genclose", help="generation closure of a seed set")
    sp.add_argument("file")
    sp.add_argument("--seed", required=True)
    sp.set_defaults(func=cmd_genclose)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # the unwritten rest goes to devnull, so the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
