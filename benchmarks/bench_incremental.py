#!/usr/bin/env python3
"""Incremental re-parsing benchmark: edit-size × input-size grid.

Measures ``repro.runtime.incremental.reparse`` against a full re-parse of
the spliced input over the SDF corpus.  Both run the same ``GSSParser``
loop over the compiled control (the production hot path); the reparse adds
checkpoint resume and the convergence stop.  Writes ``BENCH_incremental.json`` at the
repo root so the incremental-parsing trajectory is tracked across PRs:

    PYTHONPATH=src python benchmarks/bench_incremental.py

CI mode — checked against the committed floor (same-run incremental/full
speedup ratios plus absolute ceilings at 3x slack):

    PYTHONPATH=src python benchmarks/bench_incremental.py \\
        --floor benchmarks/incremental_floor.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from repro.bench.incremental import (
        check_floor,
        collect_incremental_report,
        render_incremental,
    )
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.bench.incremental import (
        check_floor,
        collect_incremental_report,
        render_incremental,
    )

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_incremental.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=7, help="timed warm runs per cell"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--no-output", action="store_true", help="skip writing the JSON file"
    )
    parser.add_argument(
        "--floor",
        type=Path,
        default=None,
        help="floor JSON to check against (exit 1 on a regression)",
    )
    args = parser.parse_args(argv)

    report = collect_incremental_report(repeats=args.repeats)
    print(render_incremental(report))

    if not args.no_output:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    if args.floor is not None:
        floor = json.loads(args.floor.read_text())
        problems = check_floor(
            report, floor, max_regression=floor.get("max_regression", 3.0)
        )
        if problems:
            print("floor check: FAIL")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print("floor check: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
