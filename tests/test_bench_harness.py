"""The shared bench harness: every ``bench_*.py`` CLI and the report envelope.

The CLIs run in subprocesses: importing a bench script has side effects
(``bench_consensus`` registers an ``HL-legacy`` protocol) that must not
leak into this process.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "benchmarks"

_spec = importlib.util.spec_from_file_location("bench_harness", BENCH_DIR / "harness.py")
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)

#: Every bench and the flags it takes on top of ``--help/--mode/--output``.
EXTRA_FLAGS = {
    "adversary": {"--seed", "--baseline"},
    "analytics": {"--baseline"},
    "consensus": {"--seed", "--baseline"},
    "cross_shard": {"--seed", "--baseline"},
    "engine": {"--seed", "--skip-determinism"},
    "reconfiguration": {"--seed", "--baseline"},
    "scaleout": {"--seed", "--baseline", "--workers"},
    "service": set(),
}


def test_every_bench_script_is_covered():
    scripts = {path.stem[len("bench_"):] for path in BENCH_DIR.glob("bench_*.py")}
    assert scripts == set(EXTRA_FLAGS)


@pytest.mark.parametrize("bench", sorted(EXTRA_FLAGS))
def test_bench_cli_help_lists_the_flags_ci_passes(bench):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / f"bench_{bench}.py"), "--help"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    flags = set(re.findall(r"--[a-z][a-z-]*", result.stdout))
    assert flags == {"--help", "--mode", "--output"} | EXTRA_FLAGS[bench]
    assert re.search(r"^\s+-o\b", result.stdout, re.MULTILINE)
    assert "{full,quick}" in result.stdout


def test_parser_defaults():
    cli = harness.parser("Demo bench.\n\nMore.", {"quick": 1, "full": 2},
                         seed=7, baseline="BENCH_demo_baseline.json")
    args = cli.parse_args([])
    assert (args.mode, args.output, args.seed) == ("quick", None, 7)
    assert args.baseline == os.path.join(harness.BENCH_DIR, "BENCH_demo_baseline.json")
    assert not hasattr(harness.parser("Demo.", {"quick": 1}).parse_args([]), "seed")
    assert harness.load_baseline(str(BENCH_DIR / "BENCH_no_such_baseline.json")) is None


def _args(tmp_path, mode="quick"):
    return argparse.Namespace(mode=mode, output=str(tmp_path / "report.json"))


def test_finish_writes_the_envelope_and_exits_zero(tmp_path, capsys):
    args = _args(tmp_path)
    assert harness.finish("demo", args, {"runs": {"a": 1}}, []) == 0
    report = json.loads(Path(args.output).read_text())
    assert report == {"benchmark": "demo", "mode": "quick",
                      "python": harness.PYTHON, "cpus": harness.CPUS,
                      "failures": [], "runs": {"a": 1}}
    assert "FAIL" not in capsys.readouterr().err


def test_finish_reports_every_failure_and_exits_one(tmp_path, capsys):
    args = _args(tmp_path, mode="full")
    failures = ["first gate", "second gate"]
    assert harness.finish("demo", args, {}, failures) == 1
    report = json.loads(Path(args.output).read_text())
    assert report["failures"] == failures and report["mode"] == "full"
    err = capsys.readouterr().err
    assert "[bench] FAIL: first gate" in err and "[bench] FAIL: second gate" in err


def test_finish_without_output_writes_nothing(tmp_path):
    args = argparse.Namespace(mode="quick", output=None)
    assert harness.finish("demo", args, {}, ["gate"]) == 1
    assert list(tmp_path.iterdir()) == []
