"""The incremental bench's floor reads the tree-mode rows too."""

from __future__ import annotations

from repro.bench.incremental import check_floor, render_incremental

FLOOR = {"tree_relative": [{"input": "ASF.sdf", "edit": "sub1", "min_speedup": 2.5}]}


def report_with(tree_speedup: float) -> dict:
    cell = {
        "edit_size": 1,
        "position": 237,
        "full_us": 2000.0,
        "incremental_us": 2000.0 / tree_speedup,
        "speedup": tree_speedup,
        "reparsed_tokens": 238,
        "converged_at": None,
    }
    return {
        "mode": "recognition",
        "inputs": {},
        "tree_mode": {"ASF.sdf": {"tokens": 475, "edits": {"sub1": cell}}},
    }


def test_tree_mode_rows_are_guarded():
    assert check_floor(report_with(4.5), FLOOR) == []
    [problem] = check_floor(report_with(1.1), FLOOR)
    assert problem.startswith("ASF.sdf/sub1 (tree mode): incremental is only 1.10x")


def test_a_missing_tree_mode_row_fails():
    [problem] = check_floor({"mode": "recognition", "inputs": {}}, FLOOR)
    assert "cell missing" in problem


def test_render_prints_the_tree_mode_rows():
    text = render_incremental(report_with(4.5))
    assert "(tree mode, worst position per cell)" in text
    assert "4.5x" in text
