"""The parts every ``benchmarks/bench_*.py`` script shares.

A bench script keeps its workload, its run functions and its gates; this
module holds the rest:

* :func:`parser` — the CLI: ``--mode`` (choices from the script's
  ``MODES``) and ``-o/--output``, plus ``--seed`` and ``--baseline`` for
  the scripts that take them.  A script adds its own flags on top.
* :func:`header` — the ``[bench] mode=… python=… cpus=…`` line.
* :func:`load_baseline` — the committed baseline JSON, or ``None``.
* :func:`finish` — writes the one report envelope
  ``{benchmark, mode, python, cpus, failures, **payload}``, prints every
  failure to stderr and returns the exit code (1 on any failure).

Gates are plain ``failures.append(message)`` calls in each script, so every
failing gate is reported, not only the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PYTHON = platform.python_version()
CPUS = os.cpu_count() or 1


def parser(doc: str, modes: Dict[str, Any], *, seed: Optional[int] = None,
           baseline: Optional[str] = None,
           output: Optional[str] = None) -> argparse.ArgumentParser:
    """The shared CLI; ``doc``'s first line is the description.

    ``seed`` adds ``--seed`` with that default.  ``baseline`` adds
    ``--baseline``, defaulting to that file name in ``benchmarks/``.
    ``output`` is the default of ``-o`` (``None``: write no report).
    """
    cli = argparse.ArgumentParser(description=doc.splitlines()[0])
    cli.add_argument("--mode", choices=sorted(modes), default="quick")
    cli.add_argument("-o", "--output", default=output,
                     help="write the report JSON to this path")
    if seed is not None:
        cli.add_argument("--seed", type=int, default=seed)
    if baseline is not None:
        cli.add_argument("--baseline", default=os.path.join(BENCH_DIR, baseline),
                         help="committed baseline JSON the gates read")
    return cli


def header(mode: str, details: str = "") -> None:
    """Print the run's first line: mode, host, then the script's details."""
    print(f"[bench] mode={mode} python={PYTHON} cpus={CPUS} {details}".rstrip())


def load_baseline(path: str) -> Optional[dict]:
    """The baseline JSON at ``path``, or ``None`` when there is no file."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def finish(benchmark: str, args: argparse.Namespace, payload: Dict[str, Any],
           failures: List[str]) -> int:
    """Write the report envelope, print the failures, return the exit code."""
    report = {**payload, "benchmark": benchmark, "mode": args.mode,
              "python": PYTHON, "cpus": CPUS, "failures": list(failures)}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"[bench] wrote {args.output}")
    for failure in failures:
        print(f"[bench] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0
