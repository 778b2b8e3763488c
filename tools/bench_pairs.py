"""Record alternating parent/change benchmark pairs into BENCH_<n>.json.

    python3 tools/bench_pairs.py --number N --parent-rev REV \\
        --pairs chambers:7101,7102,7103 --pairs analyze-h6:7201

For each workload and seed it runs ``perfbench/run.py --trace 0`` once in the
parent checkout and once in the change checkout, back to back, so that drift
in host speed hits both sides of a pair alike; which side runs first
alternates from pair to pair.  The parent checkout is revision REV of this
repository and the change checkout is HEAD, each exported with ``git
archive`` into a temporary directory that is removed afterwards, so neither
side runs from the working tree.  The tool refuses to run while tracked files
have uncommitted changes, since those would not be measured.  Each run lasts
the ``run_seconds`` that BENCHMARK.json fixes.  Every workload named in
``--pairs`` must be one that BENCHMARK.json lists, and no seed may repeat
within a workload; a plan that breaks either exits with a message before
anything is exported.

The output file holds, per workload: the seeds; for every pair the
end-to-end metric values and the failed-operation counts of both sides; per
metric the medians and quartiles of each side over the pairs, the number
of pairs the change wins and loses (in the direction BENCHMARK.json gives the
metric, ties counting for neither) and two verdicts, ``gain_shown`` (at least
9 wins in 10 pairs, and medians apart in the better direction by more than
the parent's q3 - q1) and ``within_bound`` (the change median worse than the
parent's by at most BENCHMARK.json's bound, a fraction of the parent
median); and the total failed counts.  It also holds, per side, the
tracemalloc peak in bytes of ``analyze(H_6)``, of
``report(n)`` for n = 1..6, of the lattice build ``Universe(H_6)`` and of
``enumerate_regions`` on one seeded random dimension-5 input of 14
hyperplanes with entries in [-2, 2] (the ``chambers`` workload's generator),
each in one cold process of its own with tracing started after the imports
and inputs: a count of live Python allocations, which does not move with
process layout as ``peak_rss_mb`` does.  And it holds, per side, the wall
time of the lattice build ``Universe(hyperpolygonal(6))`` in each of nine
fresh interpreters that alternate between the sides, each the least of
three builds in a row, with their median, their least and the build's
``Universe.traces``: the build grows through ``Universe.extend``, which the
benchmark's traced ``lattice.build_s`` does not time.  The zeta-base scan
``zeta_product_bases`` of ``hyperpolygonal(5)`` with exponents
(1, 5, 5, 5, 5) is timed the same way, its regions enumerated before the
timing, with its hit count, which every run on both sides must agree on.
So is ``enumerate_regions`` on the ``regions-d5-m14`` input, its lattice
built before the timing, with the region count, which every run on both
sides must agree on: the chamber search that the ``chambers`` workload
times along with the builds, zeta scans and checks around it.
And ``import hyperarr`` is timed in nine fresh interpreters per side, the
sides taking turns, each after the imports of ``perfbench/sample.py`` (the
module every benchmark sample runs), with the number of modules the import
added: the part of the benchmark's ``setup_s`` that the package sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("solve_s", "setup_s", "peak_rss_mb", "decided_frac")
# name -> (set-up run before tracing starts, the statement traced)
PEAK_PROBES = {
    "analyze-h6": ("from hyperarr import analyze, hyperpolygonal; arr = hyperpolygonal(6)", "analyze(arr)"),
    "report-1-6": ("from hyperarr import report", "for n in range(1, 7): report(n)"),
    "universe-h6": ("from hyperarr import hyperpolygonal; from hyperarr.lattice import Universe; arr = hyperpolygonal(6)",
                    "Universe(arr)"),
    "regions-d5-m14": ("import random, sys; sys.path.insert(0, 'perfbench'); from sample import random_arrangement; "
                       "from hyperarr import enumerate_regions; arr = random_arrangement(random.Random(2714), 5, 14)",
                       "enumerate_regions(arr)"),
}
PEAK_SCRIPT = "import tracemalloc\n{setup}\ntracemalloc.start()\n{run}\nprint(tracemalloc.get_traced_memory()[1])"
# statements timed in fresh interpreters: (set-up, the statement timed, runs
# per interpreter, interpreters per side, a count printed after the runs)
BUILD_PROBE = ("from hyperarr import hyperpolygonal\nfrom hyperarr.lattice import Universe\narr = hyperpolygonal(6)",
               "uni = Universe(arr)", 3, 9, "uni.traces")
ZETA_PROBE = ("from hyperarr import enumerate_regions, hyperpolygonal, zeta_product_bases\n"
              "regs = enumerate_regions(hyperpolygonal(5))",
              "hits = zeta_product_bases(regs, (1, 5, 5, 5, 5))", 3, 9, "len(hits)")
REGIONS_PROBE = ("import random, sys\nsys.path.insert(0, 'perfbench')\nfrom sample import random_arrangement\n"
                 "from hyperarr import enumerate_regions\nfrom hyperarr.lattice import universe\n"
                 "arr = random_arrangement(random.Random(2714), 5, 14)\nuniverse(arr)",
                 "regs = enumerate_regions(arr)", 3, 9, "len(regs)")
IMPORT_PROBE = ("import sys\nsys.path.insert(0, 'perfbench')\nimport sample\nbefore = len(sys.modules)",
                "import hyperarr", 1, 9, "len(sys.modules) - before")
TIMED_SCRIPT = ("import time\n{setup}\nbest = float('inf')\nfor _ in range({runs}):\n"
                "    start = time.perf_counter()\n    {run}\n    best = min(best, time.perf_counter() - start)\n"
                "print(best, {count})")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run; returns its end-to-end values and failed count."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    return {
        "metrics": {k: metrics[k]["value"] for k in END_TO_END if k in metrics},
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def probe(checkout: Path, code: str, run: str) -> list[str]:
    """The last line of output of code, split, from a fresh interpreter that
    imports the package from checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {run!r} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.splitlines()[-1].split()


def traced_peak(checkout: Path, setup: str, run: str) -> int:
    """The tracemalloc peak of run, in bytes, in a fresh interpreter."""
    return int(probe(checkout, PEAK_SCRIPT.format(setup=setup, run=run), run)[-1])


def traced_peaks(checkouts: dict[str, Path]) -> dict[str, dict[str, int]]:
    return {
        side: {name: traced_peak(checkout, *probe) for name, probe in PEAK_PROBES.items()}
        for side, checkout in checkouts.items()
    }


def timed_runs(checkouts: dict[str, Path], spec: tuple, name: str, across_sides: bool = False) -> dict[str, dict]:
    """Per side, the least wall time of a few runs of spec's statement in
    each of a few fresh interpreters, the sides taking turns; their median
    and their least; and the count spec prints, stored under name, which
    every run of a side must agree on, and with across_sides every run of
    both sides."""
    setup, run, repeats, runs, count = spec
    code = TIMED_SCRIPT.format(setup=setup, run=run, runs=repeats, count=count)
    out = {side: {"runs_s": [], name: None} for side in checkouts}
    for _ in range(runs):
        for side, checkout in checkouts.items():
            seconds, got = probe(checkout, code, run)
            for other in checkouts if across_sides else [side]:
                if out[other][name] not in (None, int(got)):
                    raise RuntimeError(f"probe {run!r} read {got} {name} on the {side} side, "
                                       f"{out[other][name]} on the {other} side before")
            out[side]["runs_s"].append(float(seconds))
            out[side][name] = int(got)
    for side in out.values():
        side["median_s"] = statistics.median(side["runs_s"])
        side["least_s"] = min(side["runs_s"])
    return out


def parse_pairs(specs: list[str], workloads: list[str]) -> dict[str, list[int]]:
    """The seeds per workload; a name BENCHMARK.json does not list, a seed
    that is not an integer or one given twice for a workload exits here."""
    out: dict[str, list[int]] = {}
    for spec in specs:
        name, _, seeds = spec.partition(":")
        if not seeds:
            raise SystemExit(f"--pairs {spec!r}: expected WORKLOAD:SEED[,SEED...]")
        if name not in workloads:
            raise SystemExit(f"--pairs {spec!r}: unknown workload {name!r}; BENCHMARK.json lists {', '.join(workloads)}")
        try:
            out.setdefault(name, []).extend(int(s) for s in seeds.split(","))
        except ValueError:
            raise SystemExit(f"--pairs {spec!r}: seeds must be integers") from None
    for name, seeds in out.items():
        if len(set(seeds)) < len(seeds):
            raise SystemExit(f"--pairs: a seed is given twice for workload {name!r}: {seeds}")
    return out


def spread(values: list[float]) -> dict:
    """Median and quartiles; the quartiles need two values or more."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [None, None, None]
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2]}


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per end-to-end metric, with metrics its BENCHMARK.json entry by name:
    each side's spread, the pairs the change wins and loses in the metric's
    direction, and two verdicts.  gain_shown: the change wins at least 9 in
    10 of the pairs, and its median is better than the parent's by more than
    the parent's q3 - q1.  within_bound: the change median is worse than the
    parent median by no more than the metric's bound, a fraction of the
    parent median."""
    out = {}
    for k in END_TO_END:
        before = [p["parent"]["metrics"][k] for p in pairs]
        after = [p["change"]["metrics"][k] for p in pairs]
        sign = 1 if metrics[k]["better"] == "higher" else -1
        parent, change = spread(before), spread(after)
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        gain = sign * (change["median"] - parent["median"])
        out[k] = {
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "change_losses": sum(sign * (a - b) < 0 for a, b in zip(after, before)),
            "gain_shown": 10 * wins >= 9 * len(pairs) and parent["q1"] is not None
            and gain > parent["q3"] - parent["q1"],
            "within_bound": -gain <= metrics[k]["bound"] * abs(parent["median"]),
        }
    return out


def record(parent: Path, change: Path, plan: dict[str, list[int]], bench: dict) -> dict:
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = {}
    count = 0
    for name, seeds in plan.items():
        pairs = []
        for seed in seeds:
            sides = [("parent", parent), ("change", change)]
            if count % 2:
                sides.reverse()
            count += 1
            pair = {"seed": seed, "first": sides[0][0]}
            for side, checkout in sides:
                pair[side] = run_once(checkout, name, seed, seconds)
            pairs.append(pair)
            print(f"{name} seed {seed}: parent {pair['parent']['metrics']} change {pair['change']['metrics']}",
                  file=sys.stderr)
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
        workloads[name] = {"seeds": seeds, "pairs": pairs, "metrics": summarize(pairs, metrics), "failed": failed}
    return workloads


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.rstrip()


def export(rev: str, dest: Path) -> None:
    """Write the committed files of rev into dest."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--number", type=int, required=True, help="N in the output name BENCH_<N>.json")
    p.add_argument("--parent-rev", required=True, help="parent revision of this repository")
    p.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD:SEED[,SEED...]")
    p.add_argument("--out", type=Path, default=None, help="output path (default: BENCH_<N>.json at the repository root)")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = parse_pairs(args.pairs, [w["name"] for w in bench["workloads"]])
    dirty = git("status", "--porcelain", "--untracked-files=no")
    if dirty:
        raise SystemExit(f"tracked files have uncommitted changes, which would not be measured:\n{dirty}")
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        export(args.parent_rev, Path(parent))
        export("HEAD", Path(change))
        workloads = record(Path(parent), Path(change), plan, bench)
        checkouts = {"parent": Path(parent), "change": Path(change)}
        peaks = traced_peaks(checkouts)
        builds = timed_runs(checkouts, BUILD_PROBE, "traces")
        zeta = timed_runs(checkouts, ZETA_PROBE, "hits", across_sides=True)
        regions = timed_runs(checkouts, REGIONS_PROBE, "regions", across_sides=True)
        imports = timed_runs(checkouts, IMPORT_PROBE, "modules")
    out = {
        "number": args.number,
        "command": "perfbench/run.py --trace 0",
        "seconds": bench["run_seconds"],
        "parent": git("rev-parse", args.parent_rev),
        "change": git("rev-parse", "HEAD"),
        "workloads": workloads,
        "traced_peak_bytes": peaks,
        "lattice_build": {"statement": BUILD_PROBE[1], "set_up": BUILD_PROBE[0], "builds_per_run": BUILD_PROBE[2],
                          **builds},
        "zeta_bases": {"statement": ZETA_PROBE[1], "set_up": ZETA_PROBE[0], "scans_per_run": ZETA_PROBE[2], **zeta},
        "regions_enum": {"statement": REGIONS_PROBE[1], "set_up": REGIONS_PROBE[0],
                         "enumerations_per_run": REGIONS_PROBE[2], **regions},
        "import_time": {"statement": IMPORT_PROBE[1], "set_up": IMPORT_PROBE[0], **imports},
    }
    path = args.out or ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
