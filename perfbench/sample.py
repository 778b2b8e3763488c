"""One benchmark sample, run in a fresh interpreter by perfbench/run.py.

The sample imports hyperarr from the checkout's src/, builds (and for
user-files writes) its inputs from the workload seed, then times the calls
into the package, records peak memory, and checks every output after the
timed window.  It prints one JSON object as the last line of stdout.

    python3 perfbench/sample.py --workload NAME --seed N --index K
        --spawn-ns T [--trace 0|1] [--setup-only] [--spans FILE]

--spawn-ns is the CLOCK_MONOTONIC reading taken by the parent just before it
started this interpreter, so the set-up time covers interpreter start, the
import and input building.

Times are reported twice: as measured (setup_wall_s, solve_wall_s) and, for
the solve, in reference seconds (solve_s), scaled by the host's speed, which
perfbench/probe.py samples with a fixed task every 0.1 s of the solve.  The
probes' own time is taken out of the solve window; a solve too short to be
probed is scaled by the burst of probes run after set-up.  That burst is
reported (setup_probes) so that the parent can scale the set-up time with it
and with its own burst before the spawn.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import random
import resource
import shutil
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from probe import Prober, burst, speed  # noqa: E402
from tracer import COUNT_NAMES, NoTracer, Tracer  # noqa: E402

# PAPER.md table, sizes 1..6, in the order of COLUMNS ("yes*" at size 5 is True).
COLUMNS = (
    "supersolvable",
    "inductively_factored",
    "inductively_free",
    "free",
    "simplicial",
    "aspherical",
    "projectively_unique",
)
PAPER_TABLE = {
    1: (True, True, True, True, True, "yes", False),
    2: (True, True, True, True, True, "yes", False),
    3: (False, True, True, True, True, "yes", True),
    4: (False, False, True, True, True, "yes", True),
    5: (False, False, False, True, False, "unknown", True),
    6: (False, False, False, False, False, "no", True),
}
# report(n) decides two flags the table does not list.  Both family workloads
# are held to these same values, so analyze(H_6) == report(6) follows.
EXTRA_FLAGS = {
    n: {"has_generic_rank3_localization": n >= 6, "formal": True} for n in PAPER_TABLE
}
# README: chi(H_4) ascending, whose roots give the exponents (1, 3, 3, 5).
CHI_H4 = (45, -84, 50, -12, 1)
EXPONENTS = {4: (1, 3, 3, 5), 5: (1, 5, 5, 5, 5)}
REGIONS = {4: 192, 5: 2592}
H6_FLATS_BY_RANK = [1, 38, 511, 2820, 5795, 3260, 1]

# user-files: (dim, hyperplanes) of the files one sample analyzes, two of each.
# The witness scan's cost per file varies by about 10-20 % with the entries at
# these sizes, and by 23 % at (4, 9), which alone costs 2.3 s on average;
# 10 and 11 hyperplanes in dimension 4 take 8-19 s per file.  Two small files
# per size keep a sample near 4 s and its cost steady from seed to seed.
USER_SHAPES = ((3, 6), (3, 7), (3, 8), (3, 9), (4, 7), (4, 8)) * 2
# chambers: hyperplane counts of the random dimension-5 arrangements.
CHAMBER_SIZES = (12, 13, 14)
ZETA_SAMPLE = 16


# -- independent references (no hyperarr code) ------------------------------


def int_rank(rows) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [p[col] * a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


def whitney_chi(dim: int, covectors) -> tuple[int, ...]:
    """chi(t) = sum over subsets S of (-1)^|S| t^(dim - rank S), ascending."""
    coeffs = [0] * (dim + 1)
    for k in range(len(covectors) + 1):
        for subset in itertools.combinations(covectors, k):
            coeffs[dim - int_rank(subset)] += (-1) ** k
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(p, q) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def chi_from_exponents(exponents) -> tuple[int, ...]:
    acc = [1]
    for e in exponents:
        acc = poly_mul(acc, [-e, 1])
    return tuple(acc)


def q_product(exponents) -> list[int]:
    acc = [1]
    for e in exponents:
        acc = poly_mul(acc, [1] * (e + 1))
    return acc


def rank_generating(masks, base: int, m: int) -> list[int]:
    coeffs = [0] * (m + 1)
    for mk in masks:
        coeffs[bin(base ^ mk).count("1")] += 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# -- inputs ------------------------------------------------------------------


def random_arrangement(rng: random.Random, dim: int, m: int):
    """m distinct hyperplanes with integer normals in [-2, 2]^dim, essential."""
    from hyperarr import from_vectors
    from hyperarr.exactlinalg import canonicalize

    while True:
        covs: set[tuple[int, ...]] = set()
        while len(covs) < m:
            v = [rng.randint(-2, 2) for _ in range(dim)]
            if any(v):
                covs.add(canonicalize(v))
        arr = from_vectors(dim, sorted(covs))
        if arr.is_essential:
            return arr


class Ops:
    """The outputs of one sample's calls, in call order, keyed by label."""

    def __init__(self, rec):
        self.rec = rec
        self.out: dict[str, object] = {}

    def run(self, label: str, span: str, fn, /, *args, **kwargs):
        try:
            result = self.rec.call(span, fn, *args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            result = exc
        self.out[label] = result
        return result


class Verdict:
    """Failed operations and decision counts found by one sample's checks."""

    def __init__(self, ops: Ops):
        self.ops = ops
        self.failures: list[str] = []
        self.bad: set[str] = set()
        self.decisions = 0
        self.undecided = 0

    def get(self, label: str):
        """The output of a call, or None after recording why it failed."""
        if label not in self.ops.out:
            self.fail(label, "was not run")
            return None
        res = self.ops.out[label]
        if isinstance(res, Exception):
            self.fail(label, f"raised {res!r}")
            return None
        return res

    def expect(self, label: str, ok: bool, what: str) -> None:
        if not ok:
            self.fail(label, what)

    def fail(self, label: str, why: str) -> None:
        self.bad.add(label)
        self.failures.append(f"{label}: {why}")


def check_ladder(v: Verdict, label: str, n: int, rep) -> None:
    """A family report's flags against the table; its decisions are counted."""
    want = dict(zip(COLUMNS, PAPER_TABLE[n]), **EXTRA_FLAGS[n])
    got = {k: rep.properties[k].value if k in rep.properties else None for k in want}
    v.expect(label, got == want, f"flags {got} != {want}")
    v.decisions += len(rep.properties)
    v.undecided += len(rep.undecided)


# -- family-ladder -------------------------------------------------------------


def family_setup(rng, work_dir):
    return list(PAPER_TABLE)


def family_solve(sizes, ops: Ops):
    import hyperarr

    for n in sizes:
        ops.run(f"report({n})", "report.self", hyperarr.report, n)


def family_check(sizes, v: Verdict):
    for n in sizes:
        label = f"report({n})"
        rep = v.get(label)
        if rep is None:
            continue
        check_ladder(v, label, n, rep)
        if n in EXPONENTS:
            v.expect(label, rep.exponents == EXPONENTS[n], f"exponents {rep.exponents}")
            v.expect(label, rep.regions == REGIONS[n], f"regions {rep.regions}")
        if n == 4:
            v.expect(label, rep.chi == CHI_H4, f"chi {rep.chi}")


# -- analyze-h6 ----------------------------------------------------------------


def h6_setup(rng, work_dir):
    from hyperarr import hyperpolygonal

    return hyperpolygonal(6)


def h6_solve(arr, ops: Ops):
    import hyperarr

    ops.run("analyze(H_6)", "report.self", hyperarr.analyze, arr, label="H_6")


def h6_check(arr, v: Verdict):
    from hyperarr import build_lattice

    label = "analyze(H_6)"
    rep = v.get(label)
    if rep is None:
        return
    check_ladder(v, label, 6, rep)
    v.expect(label, rep.exponents is None, f"exponents {rep.exponents}")
    chi = rep.chi or ()
    # degree 6, monic, -|A| next, and chi(1) = 0 for a nonempty central arrangement
    v.expect(label, len(chi) == 7 and chi[6] == 1 and chi[5] == -len(arr) and sum(chi) == 0, f"chi {chi}")
    counts = build_lattice(arr).counts_by_rank()
    v.expect(label, counts == H6_FLATS_BY_RANK, f"flats by rank {counts}")


# -- user-files ----------------------------------------------------------------


def user_setup(rng, work_dir):
    from hyperarr import format_arrangement_text

    work_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, (dim, m) in enumerate(USER_SHAPES):
        arr = random_arrangement(rng, dim, m)
        path = work_dir / f"{i:02d}-d{dim}-m{m}.txt"
        path.write_text(format_arrangement_text(arr))
        files.append((path, arr))
    return files


def user_solve(files, ops: Ops):
    from hyperarr import cli

    def analyze_file(path):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["analyze", str(path), "--json"])
        return code, buf.getvalue()

    for path, _arr in files:
        ops.run(path.name, "cli.self", analyze_file, path)


def user_check(files, v: Verdict):
    from hyperarr import enumerate_regions

    for path, arr in files:
        label = path.name
        res = v.get(label)
        if res is None:
            continue
        code, text = res
        if code not in (0, 3):
            v.fail(label, f"exit code {code}")
            continue
        try:
            rep = json.loads(text)
        except ValueError as exc:
            v.fail(label, f"output is not JSON: {exc}")
            continue
        v.decisions += len(rep["properties"])
        v.undecided += len(rep["undecided"])
        v.expect(label, (code == 3) == bool(rep["undecided"]), f"exit {code} vs undecided {rep['undecided']}")
        shape = (rep["dim"], rep["hyperplanes"], rep["rank"])
        v.expect(label, shape == (arr.dim, len(arr), arr.dim), f"dim/hyperplanes/rank {shape}")
        chi = tuple(rep["chi"] or ())
        v.expect(label, chi == whitney_chi(arr.dim, arr.covectors), f"chi {chi} disagrees with Whitney's formula")
        regions = len(enumerate_regions(arr))
        v.expect(label, rep["regions"] == regions, f"regions {rep['regions']} != {regions} enumerated")
        if rep["exponents"] is not None:
            v.expect(label, chi_from_exponents(rep["exponents"]) == chi, f"exponents {rep['exponents']}")


# -- chambers ------------------------------------------------------------------


def chambers_setup(rng, work_dir):
    from hyperarr import hyperpolygonal

    family = [(f"H_{n}", hyperpolygonal(n), n) for n in (4, 5)]
    randoms = [(f"R{i}_m{m}", random_arrangement(rng, 5, m), None) for i, m in enumerate(CHAMBER_SIZES)]
    return family + randoms


def chambers_solve(arrs, ops: Ops):
    from hyperarr import enumerate_regions, is_simplicial_geometric, zeta_product_bases

    for name, arr, n in arrs:
        regs = ops.run(f"regions {name}", "regions.enumerate", enumerate_regions, arr)
        if isinstance(regs, Exception):
            continue
        ops.rec.count("regions.regions", len(regs))
        ops.run(f"simplicial {name}", "regions.simplicial_geometric", is_simplicial_geometric, regs)
        if n is not None:
            ops.run(f"zeta {name}", "regions.zeta", zeta_product_bases, regs, EXPONENTS[n])


def chambers_check(arrs, v: Verdict):
    from hyperarr import simplicial_defect, zaslavsky_region_count

    for name, arr, n in arrs:
        regs = v.get(f"regions {name}")
        if regs is None:
            continue
        simplicial = v.get(f"simplicial {name}")
        if simplicial is None:
            continue
        v.decisions += 1
        if n is not None:
            v.expect(f"regions {name}", len(regs) == REGIONS[n], f"{len(regs)} regions")
            v.expect(f"simplicial {name}", simplicial == PAPER_TABLE[n][4], f"simplicial {simplicial}")
            check_zeta(v, f"zeta {name}", regs, n)
        else:
            want = zaslavsky_region_count(arr)
            v.expect(f"regions {name}", len(regs) == want, f"{len(regs)} regions, Zaslavsky count {want}")
            counted = simplicial_defect(arr) == 0
            v.expect(f"simplicial {name}", simplicial == counted, f"geometric {simplicial} vs facet count {counted}")


def check_zeta(v: Verdict, label: str, regs, n: int) -> None:
    hits = v.get(label)
    if hits is None:
        return
    masks = regs.masks
    m = len(regs.arrangement)
    target = q_product(EXPONENTS[n])
    # Every base found must match; bases exist at size 4 and none at size 5,
    # as the acceptance suite records.
    v.expect(label, bool(hits) == (n == 4), f"{len(hits)} matching bases")
    for bi in hits:
        v.expect(label, rank_generating(masks, masks[bi], m) == target, f"base {bi} does not match")
    misses = sorted(set(range(len(masks))) - set(hits))
    for bi in random.Random(label).sample(misses, min(ZETA_SAMPLE, len(misses))):
        v.expect(label, rank_generating(masks, masks[bi], m) != target, f"base {bi} matches but was not found")


WORKLOADS = {
    "family-ladder": (family_setup, family_solve, family_check),
    "analyze-h6": (h6_setup, h6_solve, h6_check),
    "user-files": (user_setup, user_solve, user_check),
    "chambers": (chambers_setup, chambers_solve, chambers_check),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--spawn-ns", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="write the traced spans to this JSON file")
    args = p.parse_args(argv)

    import hyperarr

    src = (ROOT / "src").resolve()
    if Path(hyperarr.__file__).resolve().parent.parent != src:
        print(f"hyperarr imported from {hyperarr.__file__}, not from {src}", file=sys.stderr)
        return 2

    setup, solve, check = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}:{args.index}")
    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        inputs = setup(rng, work_dir)
        rec = Tracer() if args.trace else NoTracer()
        if args.trace:
            rec.install()
        t_first = time.monotonic_ns()
        out = {"setup_wall_s": (t_first - args.spawn_ns) / 1e9, "setup_probes": burst()}
        if args.setup_only:
            print(json.dumps(out))
            return 0
        ops = Ops(rec)
        prober = Prober()
        t_solve = time.perf_counter()
        prober.start()
        try:
            with rec.span("bench.self"):
                solve(inputs, ops)
        finally:
            prober.stop()
        wall = time.perf_counter() - t_solve - sum(prober.durations)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        host = speed(prober.durations or out["setup_probes"])
        out.update(solve_wall_s=wall, solve_s=wall * host, speed=host,
                   solve_probes=len(prober.durations), probe_s=sum(prober.durations),
                   peak_rss_mb=peak_rss_mb)
        if args.trace:
            rec.uninstall()
        verdict = Verdict(ops)
        check(inputs, verdict)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    out.update(
        attempted=len(ops.out),
        failed=len(verdict.bad),
        failures=verdict.failures,
        decisions=verdict.decisions,
        undecided=verdict.undecided,
    )
    if args.trace:
        out["self_s"] = rec.self_times()
        out["counts"] = {name: rec.counts.get(name, 0) for name in COUNT_NAMES}
        if args.spans:
            Path(args.spans).write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                                    "index": args.index, "spans": rec.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
