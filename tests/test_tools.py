"""Tests for the benchmark pair recorder in tools/."""

import importlib.util
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
