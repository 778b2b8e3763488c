"""Benchmark for hyperarr: time to a verified decision, memory and decided share.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of family-ladder, analyze-h6, user-files, chambers, or ``all``
to run the four in turn.  Load is one closed-loop caller: samples run one
after another, each in a fresh interpreter (perfbench/sample.py), because
the package's lattice cache is process-global and a command-line user pays
the cold build on every run.  A new sample starts while it is expected to
end within S seconds of the first; a sample longer than S (analyze-h6) still
runs once.

With --trace 0 the run reports the end-to-end metrics: medians over its
samples of solve_s, setup_s (also set up alone a few times) and peak_rss_mb,
and decided_frac over every decision made.  solve_s and setup_s are in
reference seconds: measured times scaled by the host's speed, which a fixed
probe task (perfbench/probe.py) samples during each solve and around each
set-up, because the host this benchmark was written on drifts in speed by up
to 1.8x.  The measured medians are printed too.

With --trace 1 it alternates untraced and traced samples on the same inputs
and reports the per-layer metrics: medians of span self times (measured
seconds) and counts, trace.solve_s, the measured traced solve time the self
times add up to, and trace.overhead_s, the traced minus the untraced median
solve_s.  Spans of traced samples are written to .perfbench/ in the
checkout.

Every output is checked; a mismatch, an exception or exit code 2 counts as a
failed operation.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("family-ladder", "analyze-h6", "user-files", "chambers")
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import burst, speed  # noqa: E402
from tracer import COUNT_NAMES, SPAN_NAMES  # noqa: E402

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "decided_frac": "fraction"}


def spawn(workload: str, seed: int, index: int, trace: bool, deadline: float, setup_only: bool = False):
    """Run one sample interpreter; returns (result dict, None) or (None, error)."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "sample.py"),
        "--workload", workload, "--seed", str(seed), "--index", str(index),
        "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", str(ROOT / ".perfbench" / f"spans-{workload}-seed{seed}-{index}.json")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = burst()
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, f"sample {index} timed out"
    if proc.returncode != 0:
        return None, f"sample {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, f"sample {index} printed no result"
    res["setup_s"] = res["setup_wall_s"] * speed(before + res["setup_probes"])
    return res, None


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    """Sample one workload for `seconds`; returns (samples, traced, setups, errors)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    errors: list[str] = []
    if not trace:
        for k in range(SETUP_PROBES):
            res, err = spawn(workload, seed, k, False, deadline, setup_only=True)
            if res is None:
                errors.append(err)
                return plain, traced, setups, errors
            setups.append(res)
    start = time.monotonic()
    k = 0
    while True:
        # in a traced run, sample pairs share their inputs: untraced, then traced
        with_trace = trace and k % 2 == 1
        res, err = spawn(workload, seed, k // 2 if trace else k, with_trace, deadline)
        k += 1
        if res is None:
            errors.append(err)
            break
        (traced if with_trace else plain).append(res)
        if trace and not with_trace:
            continue
        now = time.monotonic()
        per_step = (now - start) / (k // 2 if trace else k)
        if now + per_step > min(start + seconds, deadline):
            break
    setups += plain
    return plain, traced, setups, errors


def end_to_end(plain: list[dict], setups: list[dict]) -> dict:
    decisions = sum(s["decisions"] for s in plain)
    undecided = sum(s["undecided"] for s in plain)
    return {
        "solve_s": statistics.median(s["solve_s"] for s in plain),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        "decided_frac": (decisions - undecided) / decisions if decisions else 0.0,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    def med(fn) -> float:
        return statistics.median(fn(s) for s in traced)

    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = (med(lambda s: s["self_s"][name]), "s")
    for name in COUNT_NAMES:
        out[name] = (med(lambda s: s["counts"][name]), "count")
    out["lattice.flats_per_s"] = (
        med(lambda s: ratio(s["counts"]["lattice.flats"], s["self_s"]["lattice.build"])), "1/s")
    out["regions.regions_per_s"] = (
        med(lambda s: ratio(s["counts"]["regions.regions"], s["self_s"]["regions.enumerate"])), "1/s")
    out["formality.witness_hit_ratio"] = (
        med(lambda s: ratio(s["counts"]["formality.witnesses"], s["counts"]["formality.gen_closure_calls"])),
        "fraction")
    # measured, probes included, like the span times it is compared with
    out["trace.solve_s"] = (med(lambda s: s["solve_wall_s"] + s["probe_s"]), "s")
    # in reference seconds, so that a change of host speed between the two cancels
    out["trace.overhead_s"] = (
        med(lambda s: s["solve_s"]) - statistics.median(s["solve_s"] for s in plain), "s")
    return out


def report_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload, print its summary lines, return its result object."""
    plain, traced, setups, errors = run_workload(workload, seed, seconds, trace)
    samples = plain + traced
    attempted = sum(s["attempted"] for s in samples) + len(errors)
    failed = sum(s["failed"] for s in samples) + len(errors)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    for s in samples:
        for why in s["failures"]:
            print(f"failed: {why}", file=sys.stderr)
    if errors or not plain or (trace and not traced):
        return {"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1), "metrics": {}}

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  samples {len(plain)} untraced"
          f" + {len(traced)} traced  setups {len(setups)}")
    if trace:
        metrics = per_layer(plain, traced)
        for name, (value, unit) in sorted(metrics.items(), key=lambda kv: (kv[1][1], -kv[1][0])):
            print(f"  {name:34s} {value:14.6f} {unit}")
        accounted = sum(metrics[f"{n}_s"][0] for n in SPAN_NAMES)
        print(f"  span self times sum to {accounted:.3f} s of {metrics['trace.solve_s'][0]:.3f} s traced solve")
    else:
        values = end_to_end(plain, setups)
        metrics = {name: (values[name], END_TO_END_UNITS[name]) for name in END_TO_END_UNITS}
        decisions = sum(s["decisions"] for s in plain)
        undecided = sum(s["undecided"] for s in plain)
        solves = " ".join(f"{s['solve_s']:.3f}" for s in plain)
        wall = statistics.median(s["solve_wall_s"] for s in plain)
        speeds = " ".join(f"{s['speed']:.3f}" for s in plain)
        print(f"  solve_s        {values['solve_s']:10.4f} s   median of {len(plain)}: {solves}")
        print(f"  solve, measured{wall:10.4f} s   host speed: {speeds}")
        print(f"  setup_s        {values['setup_s']:10.4f} s   median of {len(setups)}"
              f" (measured {statistics.median(s['setup_wall_s'] for s in setups):.4f} s)")
        print(f"  peak_rss_mb    {values['peak_rss_mb']:10.2f} MB")
        print(f"  failed_frac    {ratio(failed, attempted):10.4f}     {failed} of {attempted} operations")
        print(f"  undecided_frac {ratio(undecided, decisions):10.4f}     {undecided} of {decisions} decisions")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hyperarr benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hyperarr" / "__init__.py").is_file():
        print(f"error: no hyperarr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: report_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        for w, r in results.items():
            print(f"{w}: {json.dumps(r)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
