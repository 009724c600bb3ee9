#!/usr/bin/env python3
"""Hot-path benchmark: tokens/sec per control-plane tier.

Measures warm throughput for the lazy (paper reference), compiled and
parse-table controls under PAR-PARSE, and for the merged-stack gss
parser, on the §7 workloads, and writes ``BENCH_parse_hotpath.json`` at the repo root so the perf
trajectory is tracked across PRs:

    PYTHONPATH=src python benchmarks/bench_parse_hotpath.py

Every run also times tree rendering (``ParseForest.brackets``) for the
429-tree booleans forest and the ASF.sdf tree, counts the ASF.sdf
positions gss's general sweep handles next to its same-run ``gss``/``lazy``
ratio (the SLR(1) step cells its deterministic stretch reads), and times
``gss`` on 500 and 2,000 tokens of the right-recursive ``L ::= x L``.

CI smoke mode — booleans workload only, checked against the committed
floor (fails when compiled, table or gss is less than 1.25x lazy in the
same run, when any tier regresses more than 3x, when rendering the
ASF.sdf tree takes more than 1.5x the time of counting it, when gss's
general sweep handles more ASF.sdf positions than the ceiling or gss
falls under its floor against ``lazy`` there, when the right-recursive
parse time grows more than its ceiling from 500 to 2,000 tokens, or when
gss takes more than 35x its booleans medium time on large):

    PYTHONPATH=src python benchmarks/bench_parse_hotpath.py \\
        --workload booleans --floor benchmarks/hotpath_floor.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from repro.bench.hotpath import (
        check_floor,
        check_render_floor,
        check_step_cell_floor,
        collect_hotpath_report,
        render_hotpath,
        render_step_cells,
        render_tree_timings,
    )
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.bench.hotpath import (
        check_floor,
        check_render_floor,
        check_step_cell_floor,
        collect_hotpath_report,
        render_hotpath,
        render_step_cells,
        render_tree_timings,
    )

WORKLOAD_NAMES = ("sdf", "booleans")

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_parse_hotpath.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload",
        choices=[*WORKLOAD_NAMES, "all"],
        default="all",
        help="which §7 workload(s) to measure (default: all)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timed warm parses per tier"
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
        help="floor JSON to check against (exit 1 on a same-run ratio "
        "against lazy under its floor, a >3x regression, a render/count "
        "ratio over its ceiling, a general-sweep count or "
        "right-recursion growth over its ceiling, or gss growth from "
        "medium to large over its ceiling)",
    )
    args = parser.parse_args(argv)

    names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    report = collect_hotpath_report(repeats=args.repeats, workload_names=names)

    for name in names:
        print(render_hotpath(report["workloads"][name]))
        print()
    print(render_tree_timings(report["render"]))
    print()
    print(render_step_cells(report))
    print()

    if not args.no_output:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    if args.floor is not None:
        floor = json.loads(args.floor.read_text())
        workload_name = floor.get("workload", "booleans")
        measured = report["workloads"].get(workload_name)
        if measured is None:
            print(f"floor check: workload {workload_name!r} was not measured")
            return 1
        problems = (
            check_floor(
                measured, floor, max_regression=floor.get("max_regression", 3.0)
            )
            + check_render_floor(report["render"], floor)
            + check_step_cell_floor(report, floor)
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
