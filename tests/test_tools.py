"""Tests for the benchmark pair recorder in tools/."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_rejects_a_bad_plan_before_any_export(monkeypatch):
    tool = _bench_pairs()

    def refuse(*args):
        raise AssertionError("a checkout was exported or git was run")

    monkeypatch.setattr(tool, "export", refuse)
    monkeypatch.setattr(tool, "git", refuse)
    bad = [
        ["all:1"],  # run.py --workload all prefixes its metric keys
        ["user-file:1"],
        ["chambers:1,2,1"],
        ["chambers:1", "chambers:1"],
        ["chambers:x"],
        ["chambers"],
    ]
    for specs in bad:
        argv = ["--number", "0", "--parent-rev", "HEAD"]
        for spec in specs:
            argv += ["--pairs", spec]
        with pytest.raises(SystemExit) as exc:
            tool.main(argv)
        assert isinstance(exc.value.code, str), specs
    plan = tool.parse_pairs(["chambers:1,2", "user-files:3", "chambers:4"], ["chambers", "user-files"])
    assert plan == {"chambers": [1, 2, 4], "user-files": [3]}


def test_bench_pairs_records_traced_peaks_of_cold_processes(monkeypatch, tmp_path):
    import subprocess
    import sys

    tool = _bench_pairs()
    ran = []  # the checkout of each perfbench run, parent first
    probes = []

    def run_once(checkout, workload, seed, seconds):
        ran.append(checkout)
        return {"metrics": {k: 1.0 for k in tool.END_TO_END}, "attempted": 1, "failed": 0}

    def run(cmd, cwd, env, capture_output, text):
        probes.append((cmd, cwd, env["PYTHONPATH"]))
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{1000 * len(probes)}\n", stderr="")

    monkeypatch.setattr(tool, "git", lambda *args: "" if args[0] == "status" else "rev")
    monkeypatch.setattr(tool, "export", lambda rev, dest: None)
    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "timed_runs", lambda checkouts, spec, name, across_sides=False: {})  # covered below
    monkeypatch.setattr(tool.subprocess, "run", run)
    out = tmp_path / "BENCH_0.json"
    assert tool.main(["--number", "0", "--parent-rev", "HEAD~1", "--pairs", "chambers:1,2", "--out", str(out)]) == 0
    monkeypatch.undo()
    parent, change = ran[0], ran[1]
    assert ran == [parent, change, change, parent]  # sides alternate pair by pair
    record = json.loads(out.read_text())
    assert record["traced_peak_bytes"] == {
        "parent": {"analyze-h6": 1000, "report-1-6": 2000, "universe-h6": 3000, "regions-d5-m14": 4000},
        "change": {"analyze-h6": 5000, "report-1-6": 6000, "universe-h6": 7000, "regions-d5-m14": 8000},
    }
    # one fresh interpreter per probe, importing the checkout's own package,
    # with tracing started after the set-up and before the traced statement
    assert [(cwd, path) for _, cwd, path in probes] == [(c, str(c / "src")) for c in 4 * [parent] + 4 * [change]]
    for (cmd, _, _), (setup, statement) in zip(probes, 2 * list(tool.PEAK_PROBES.values())):
        assert cmd[:2] == [sys.executable, "-c"]
        code = cmd[2]
        assert code.index(setup) < code.index("tracemalloc.start()") < code.index(statement)

    def failing(cmd, cwd, env, capture_output, text):
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="Traceback: boom")

    monkeypatch.setattr(tool.subprocess, "run", failing)
    with pytest.raises(RuntimeError, match="boom"):
        tool.traced_peak(tmp_path, "x = 1", "x + 1")


def test_bench_pairs_verdicts_read_wins_spread_and_bound():
    tool = _bench_pairs()
    bench = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    assert metrics["solve_s"]["better"] == "lower" and metrics["solve_s"]["bound"] == 0.25
    assert metrics["decided_frac"]["better"] == "higher" and metrics["decided_frac"]["bound"] == 0.02
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # median 1.0, q3 - q1 0.04

    def verdicts(change, before=parent):
        pairs = [
            {side: {"metrics": dict.fromkeys(tool.END_TO_END, x)} for side, x in (("parent", b), ("change", a))}
            for b, a in zip(before, change)
        ]
        out = tool.summarize(pairs, metrics)
        return {k: (out[k]["gain_shown"], out[k]["within_bound"]) for k in ("solve_s", "decided_frac")}

    # 10 of 10 pairs lower by 0.1, past the spread: a gain where lower is
    # better, a loss of 10 % where higher is, past decided_frac's bound of 2 %
    assert verdicts([x - 0.1 for x in parent]) == {"solve_s": (True, True), "decided_frac": (False, False)}
    # 9 of 10 wins still show a gain; 8 of 10 do not
    assert verdicts([x - 0.1 for x in parent[:9]] + [1.5])["solve_s"] == (True, True)
    assert verdicts([x - 0.1 for x in parent[:8]] + [1.5, 1.5])["solve_s"] == (False, True)
    # every pair won, but by less than the parent's q3 - q1
    assert verdicts([x - 0.03 for x in parent])["solve_s"] == (False, True)
    # worse by 20 % keeps solve_s within its bound of 25 %, by 30 % does not
    assert verdicts([x * 1.2 for x in parent])["solve_s"] == (False, True)
    assert verdicts([x * 1.3 for x in parent])["solve_s"] == (False, False)
    assert verdicts([x + 0.01 for x in parent])["decided_frac"] == (False, True)
    assert verdicts([x - 0.03 for x in parent])["decided_frac"] == (False, False)
    # one pair has no quartiles, so it shows no gain
    assert verdicts([0.5], [1.0])["solve_s"] == (False, True)


def test_bench_pairs_peak_probe_runs_in_a_fresh_interpreter():
    tool = _bench_pairs()
    root = TOOL.parent.parent
    small = tool.traced_peak(root, "from hyperarr import hyperpolygonal", "hyperpolygonal(2)")
    large = tool.traced_peak(root, "from hyperarr import hyperpolygonal", "[hyperpolygonal(6) for _ in range(50)]")
    assert 0 < small < large


def test_bench_pairs_records_the_lattice_build_of_fresh_interpreters(monkeypatch, tmp_path):
    import subprocess
    import sys

    tool = _bench_pairs()
    probes = []

    def run(cmd, cwd, env, capture_output, text):
        probes.append((cmd, cwd, env["PYTHONPATH"]))
        seconds = [0.3, 0.2, 0.1][len(probes) % 3]
        count = 143234 if "Universe(arr)" in cmd[2] else 0
        return subprocess.CompletedProcess(cmd, 0, stdout=f"noise\n{seconds} {count}\n", stderr="")

    monkeypatch.setattr(tool, "git", lambda *args: "" if args[0] == "status" else "rev")
    monkeypatch.setattr(tool, "export", lambda rev, dest: None)
    monkeypatch.setattr(tool, "run_once", lambda *args: {"metrics": {}, "attempted": 1, "failed": 0})
    monkeypatch.setattr(tool, "summarize", lambda pairs, better: {})
    monkeypatch.setattr(tool, "traced_peaks", lambda checkouts: {})
    monkeypatch.setattr(tool.subprocess, "run", run)
    out = tmp_path / "BENCH_0.json"
    assert tool.main(["--number", "0", "--parent-rev", "HEAD~1", "--pairs", "chambers:1", "--out", str(out)]) == 0
    monkeypatch.undo()
    setup, statement, builds, runs, count = tool.BUILD_PROBE
    # the zeta, regions and import probes' runs come after
    after = 2 * (tool.ZETA_PROBE[3] + tool.REGIONS_PROBE[3] + tool.IMPORT_PROBE[3])
    assert count == "uni.traces" and len(probes) == 2 * runs + after
    probes = probes[: 2 * runs]
    assert all(statement in cmd[2] for cmd, _, _ in probes)
    assert "Universe(arr)" in statement and "hyperpolygonal(6)" in setup and builds >= 3 and runs >= 3
    build = json.loads(out.read_text())["lattice_build"]
    assert build["statement"] == statement and build["set_up"] == setup and build["builds_per_run"] == builds
    # one fresh interpreter per run, the sides taking turns, each importing its own package
    parent, change = probes[0][1], probes[1][1]
    assert parent != change and len(probes) == 2 * runs
    assert [(cwd, path) for _, cwd, path in probes] == runs * [(parent, str(parent / "src")), (change, str(change / "src"))]
    times = [[0.3, 0.2, 0.1][(i + 1) % 3] for i in range(2 * runs)]
    for side, first in (("parent", 0), ("change", 1)):
        assert build[side]["runs_s"] == times[first::2] and build[side]["traces"] == 143234
        assert build[side]["median_s"] == sorted(times[first::2])[runs // 2]
        assert build[side]["least_s"] == min(times[first::2]) == 0.1
    for cmd, _, _ in probes:
        assert cmd[:2] == [sys.executable, "-c"]
        code = cmd[2]
        assert code.index(setup) < code.index(f"range({builds})") < code.index("perf_counter()")
        assert code.index("perf_counter()") < code.index(statement) < code.rindex("perf_counter()")
        assert code.rindex("perf_counter()") < code.index(f"print(best, {count})")

    # a side whose runs disagree on the trace count, or a failing run, raises
    counts = iter([100, 100, 101])

    def disagreeing(cmd, cwd, env, capture_output, text):
        return subprocess.CompletedProcess(cmd, 0, stdout=f"0.1 {next(counts)}\n", stderr="")

    monkeypatch.setattr(tool.subprocess, "run", disagreeing)
    with pytest.raises(RuntimeError, match="101 traces"):
        tool.timed_runs({"parent": tmp_path}, tool.BUILD_PROBE, "traces")

    def failing(cmd, cwd, env, capture_output, text):
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="Traceback: boom")

    monkeypatch.setattr(tool.subprocess, "run", failing)
    with pytest.raises(RuntimeError, match="boom"):
        tool.timed_runs({"parent": tmp_path}, tool.BUILD_PROBE, "traces")


def test_bench_pairs_build_probe_runs_in_a_fresh_interpreter():
    tool = _bench_pairs()
    root = TOOL.parent.parent
    setup, statement, builds, _, count = tool.BUILD_PROBE
    script = tool.TIMED_SCRIPT.format(setup=setup, run=statement, runs=builds, count=count)
    seconds, traces = tool.probe(root, script, statement)
    assert 0 < float(seconds) and int(traces) == 143234
    # the least of the builds in one interpreter: one build of three that sleeps cannot raise it
    slow = (
        "import time\nslept = []\n"
        "def build():\n    if not slept:\n        slept.append(time.sleep(0.5))\n    return Universe(arr)"
    )
    script = tool.TIMED_SCRIPT.format(setup=setup + "\n" + slow, run="uni = build()", runs=builds, count=count)
    assert float(tool.probe(root, script, "uni = build()")[0]) < 0.5


def test_bench_pairs_records_the_zeta_scan_of_fresh_interpreters(monkeypatch, tmp_path):
    import subprocess
    import sys

    tool = _bench_pairs()
    probes = []

    def run(cmd, cwd, env, capture_output, text):
        probes.append((cmd, cwd, env["PYTHONPATH"]))
        seconds = [0.03, 0.02, 0.01][len(probes) % 3]
        return subprocess.CompletedProcess(cmd, 0, stdout=f"noise\n{seconds} 0\n", stderr="")

    monkeypatch.setattr(tool, "git", lambda *args: "" if args[0] == "status" else "rev")
    monkeypatch.setattr(tool, "export", lambda rev, dest: None)
    monkeypatch.setattr(tool, "run_once", lambda *args: {"metrics": {}, "attempted": 1, "failed": 0})
    monkeypatch.setattr(tool, "summarize", lambda pairs, better: {})
    monkeypatch.setattr(tool, "traced_peaks", lambda checkouts: {})
    monkeypatch.setattr(tool.subprocess, "run", run)
    out = tmp_path / "BENCH_0.json"
    assert tool.main(["--number", "0", "--parent-rev", "HEAD~1", "--pairs", "chambers:1", "--out", str(out)]) == 0
    monkeypatch.undo()
    setup, statement, scans, runs, count = tool.ZETA_PROBE
    assert "zeta_product_bases(regs, (1, 5, 5, 5, 5))" in statement and count == "len(hits)"
    assert "enumerate_regions(hyperpolygonal(5))" in setup and scans >= 3 and runs >= 3
    zeta = json.loads(out.read_text())["zeta_bases"]
    assert zeta["statement"] == statement and zeta["set_up"] == setup and zeta["scans_per_run"] == scans
    # after the lattice build's runs, one fresh interpreter per run, the sides
    # taking turns, each importing its own package; the regions probe's runs
    # follow, and the import probe's runs come last
    enum_setup, enum_statement, enums, enum_runs, enum_count = tool.REGIONS_PROBE
    imports = tool.IMPORT_PROBE[3]
    assert len(probes) == 4 * runs + 2 * enum_runs + 2 * imports
    parent, change = probes[0][1], probes[1][1]
    assert [(cwd, path) for _, cwd, path in probes[2 * runs :]] == (runs + enum_runs + imports) * [
        (parent, str(parent / "src")), (change, str(change / "src"))
    ]
    import_time = json.loads(out.read_text())["import_time"]
    assert import_time["statement"] == "import hyperarr" and import_time["set_up"] == tool.IMPORT_PROBE[0]
    assert len(import_time["parent"]["runs_s"]) == len(import_time["change"]["runs_s"]) == imports
    for cmd, _, _ in probes[4 * runs + 2 * enum_runs :]:
        code = cmd[2]
        assert code.index("import sample") < code.index("before = ") < code.index("import hyperarr")
    # the regions probe: the regions-d5-m14 input with its lattice built
    # before the timing, the least of a few enumerations per interpreter
    assert enum_statement == "regs = enumerate_regions(arr)" and enum_count == "len(regs)"
    assert "random_arrangement(random.Random(2714), 5, 14)" in enum_setup and "universe(arr)" in enum_setup
    assert enums >= 3 and enum_runs >= 9
    regions = json.loads(out.read_text())["regions_enum"]
    assert regions["statement"] == enum_statement and regions["set_up"] == enum_setup
    assert regions["enumerations_per_run"] == enums
    enum_probes = probes[4 * runs : 4 * runs + 2 * enum_runs]
    enum_times = [[0.03, 0.02, 0.01][(i + 1) % 3] for i in range(4 * runs, 4 * runs + 2 * enum_runs)]
    for side, first in (("parent", 0), ("change", 1)):
        assert regions[side]["runs_s"] == enum_times[first::2] and regions[side]["regions"] == 0
        assert regions[side]["median_s"] == sorted(enum_times[first::2])[enum_runs // 2]
        assert regions[side]["least_s"] == min(enum_times[first::2]) == 0.01
    for cmd, _, _ in enum_probes:
        code = cmd[2]
        assert code.index(enum_setup) < code.index(f"range({enums})") < code.index("perf_counter()")
        assert code.index("perf_counter()") < code.index(enum_statement) < code.rindex("perf_counter()")
    probes = probes[: 4 * runs]
    times = [[0.03, 0.02, 0.01][(i + 1) % 3] for i in range(2 * runs, 4 * runs)]
    for side, first in (("parent", 0), ("change", 1)):
        assert zeta[side]["runs_s"] == times[first::2] and zeta[side]["hits"] == 0
        assert zeta[side]["median_s"] == sorted(times[first::2])[runs // 2]
        assert zeta[side]["least_s"] == min(times[first::2]) == 0.01
    for cmd, _, _ in probes[2 * runs :]:
        assert cmd[:2] == [sys.executable, "-c"]
        code = cmd[2]
        assert code.index(setup) < code.index(f"range({scans})") < code.index("perf_counter()")
        assert code.index("perf_counter()") < code.index(statement) < code.rindex("perf_counter()")

    # the hit count is an output: a change side that reads another one raises
    counts = iter([0, 1])

    def disagreeing(cmd, cwd, env, capture_output, text):
        return subprocess.CompletedProcess(cmd, 0, stdout=f"0.01 {next(counts)}\n", stderr="")

    monkeypatch.setattr(tool.subprocess, "run", disagreeing)
    with pytest.raises(RuntimeError, match="1 hits on the change side, 0 on the parent side"):
        tool.timed_runs({"parent": tmp_path, "change": tmp_path}, tool.ZETA_PROBE, "hits", across_sides=True)
    counts = iter([2104, 2105])
    with pytest.raises(RuntimeError, match="2105 regions on the change side, 2104 on the parent side"):
        tool.timed_runs({"parent": tmp_path, "change": tmp_path}, tool.REGIONS_PROBE, "regions", across_sides=True)


def test_bench_pairs_zeta_probe_runs_in_a_fresh_interpreter():
    tool = _bench_pairs()
    root = TOOL.parent.parent
    setup, statement, scans, _, count = tool.ZETA_PROBE
    script = tool.TIMED_SCRIPT.format(setup=setup, run=statement, runs=scans, count=count)
    seconds, hits = tool.probe(root, script, statement)
    assert 0 < float(seconds) < 5 and int(hits) == 0


def test_bench_pairs_regions_probe_runs_in_a_fresh_interpreter():
    tool = _bench_pairs()
    root = TOOL.parent.parent
    setup, statement, enums, _, count = tool.REGIONS_PROBE
    script = tool.TIMED_SCRIPT.format(setup=setup, run=statement, runs=enums, count=count)
    seconds, regions = tool.probe(root, script, statement)
    # the regions-d5-m14 input has 2,104 regions, Zaslavsky's count
    assert 0 < float(seconds) < 5 and int(regions) == 2104


def test_bench_pairs_import_probe_runs_in_a_fresh_interpreter():
    tool = _bench_pairs()
    root = TOOL.parent.parent
    setup, statement, runs, interpreters, count = tool.IMPORT_PROBE
    assert statement == "import hyperarr" and runs == 1 and interpreters == 9
    seconds, modules = tool.probe(root, tool.TIMED_SCRIPT.format(setup=setup, run=statement, runs=runs, count=count),
                                  statement)
    # the package's own ten modules at least, after the benchmark sample's imports
    assert 0 < float(seconds) and int(modules) >= 10
