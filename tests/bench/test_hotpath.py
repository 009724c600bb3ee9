"""Hot-path benchmark plumbing: floor checks and report shape."""

from repro.bench.hotpath import (
    check_floor,
    check_render_floor,
    check_step_cell_floor,
    measure_hotpath,
    measure_lookahead,
    measure_render,
    measure_right_recursion,
    render_step_cells,
    render_tree_timings,
)
from repro.bench.workloads import booleans_workload


def report_with(rates):
    return {
        "workload": "booleans",
        "inputs": {
            "small": {"tokens": 19, "tokens_per_sec": dict(rates)},
        },
    }


HEALTHY = {
    "lazy": 7_000.0,
    "compiled": 11_000.0,
    "table": 11_000.0,
}


class TestCheckFloor:
    def floor(self):
        return {
            "workload": "booleans",
            "max_regression": 3.0,
            "tokens_per_sec": {"small": dict(HEALTHY)},
            "relative": [
                {
                    "input": "small",
                    "numerator": "compiled",
                    "denominator": "lazy",
                    "min_ratio": 1.25,
                }
            ],
        }

    def test_healthy_run_passes(self):
        assert check_floor(report_with(HEALTHY), self.floor()) == []

    def test_uniformly_slower_machine_still_passes(self):
        # Absolute rates 2.5x below the reference floor but the same-run
        # ratio intact: a slower CI runner must not fail the check.
        slow = {tier: rate / 2.5 for tier, rate in HEALTHY.items()}
        assert check_floor(report_with(slow), self.floor()) == []

    def test_absolute_collapse_fails(self):
        crawl = {tier: rate / 10 for tier, rate in HEALTHY.items()}
        problems = check_floor(report_with(crawl), self.floor())
        assert any("below the floor" in p for p in problems)

    def test_relative_regression_fails_even_on_a_fast_machine(self):
        # compiled barely faster than lazy — the regression the job
        # exists to catch — on a machine fast enough to clear every
        # absolute floor.
        regressed = dict(HEALTHY)
        regressed["compiled"] = HEALTHY["lazy"] * 1.1
        problems = check_floor(report_with(regressed), self.floor())
        assert any("only 1.10x" in p for p in problems)

    def test_missing_input_reported(self):
        report = {"workload": "booleans", "inputs": {}}
        problems = check_floor(report, self.floor())
        assert problems and all("missing" in p for p in problems)

    def test_missing_tier_reported(self):
        rates = {k: v for k, v in HEALTHY.items() if k != "compiled"}
        problems = check_floor(report_with(rates), self.floor())
        assert any("compiled" in p for p in problems)


class TestGrowthCeiling:
    FLOOR = {
        "growth": [
            {"tier": "gss", "numerator": "large", "denominator": "medium", "max_ratio": 35.0}
        ]
    }

    @staticmethod
    def report_with(medium_rate, large_rate):
        return {
            "inputs": {
                "medium": {"tokens": 79, "tokens_per_sec": {"gss": medium_rate}},
                "large": {"tokens": 239, "tokens_per_sec": {"gss": large_rate}},
            }
        }

    def test_cubic_growth_passes(self):
        # 3x the tokens at a ninth of the rate: 27x the time.
        assert check_floor(self.report_with(9_000.0, 1_000.0), self.FLOOR) == []

    def test_growth_over_the_ceiling_fails(self):
        problems = check_floor(self.report_with(9_000.0, 100.0), self.FLOOR)
        assert any("ceiling 35.0x" in p for p in problems)

    def test_missing_input_reported(self):
        report = self.report_with(9_000.0, 1_000.0)
        del report["inputs"]["large"]
        assert any("missing" in p for p in check_floor(report, self.FLOOR))


class TestMeasureHotpath:
    def test_report_shape_and_speedups(self):
        report = measure_hotpath(
            booleans_workload(), repeats=1, inputs=("tiny",)
        )
        assert report["workload"] == "booleans"
        assert set(report["inputs"]) == {"tiny"}
        rates = report["inputs"]["tiny"]["tokens_per_sec"]
        assert set(rates) == {"lazy", "compiled", "table", "gss"}
        assert all(rate > 0 for rate in rates.values())
        assert "tiny" in report["speedup_compiled_vs_lazy"]
        assert "aggregate" in report["speedup_compiled_vs_lazy"]
        assert set(report["aggregate_tokens_per_sec"]) == set(rates)

    def test_tier_inputs_extend_a_single_tier(self):
        # The merged-stack gss tier runs the ambiguous medium input the
        # linear-stack tiers skip; its aggregate only counts what it ran.
        report = measure_hotpath(
            booleans_workload(),
            repeats=1,
            inputs=("tiny",),
            tier_inputs={"gss": ("tiny", "medium")},
        )
        assert set(report["inputs"]) == {"tiny", "medium"}
        assert set(report["inputs"]["medium"]["tokens_per_sec"]) == {"gss"}
        assert report["inputs"]["medium"]["tokens_per_sec"]["gss"] > 0
        assert set(report["inputs"]["tiny"]["tokens_per_sec"]) == {
            "lazy", "compiled", "table", "gss",
        }


class TestRender:
    FLOOR = {"render": {"max_render_vs_count": {"ASF.sdf": 1.5}}}

    def report_with(self, ratio):
        return {"forests": {"ASF.sdf": {"render_vs_count": ratio}}}

    def test_ratio_under_ceiling_passes(self):
        assert check_render_floor(self.report_with(0.6), self.FLOOR) == []

    def test_decode_then_render_ratio_fails(self):
        problems = check_render_floor(self.report_with(2.7), self.FLOOR)
        assert any("2.70x" in p for p in problems)

    def test_missing_forest_reported(self):
        problems = check_render_floor({"forests": {}}, self.FLOOR)
        assert problems and "missing" in problems[0]

    def test_report_shape(self):
        report = measure_render(repeats=1)
        booleans = report["forests"]["booleans8"]
        asf = report["forests"]["ASF.sdf"]
        assert booleans["trees"] == 429  # Catalan(7)
        assert asf["trees"] == 1 and asf["chars"] > 10_000
        for data in (booleans, asf):
            assert data["render_us"] > 0 and data["count_us"] > 0
            assert data["render_vs_count"] > 0
        assert "ASF.sdf" in render_tree_timings(report)


class TestStepCells:
    FLOOR = {
        "lookahead": {"max_gss_general_sweeps": 13, "min_gss_vs_lazy": 3.0},
        "right_recursion": {"max_growth": {"gss": 8.0}},
    }

    def report_with(self, sweeps=4, ratio=4.4, growth=4.3):
        return {
            "lookahead": {
                "input": "ASF.sdf",
                "lazy_forks": 328,
                "gss_general_sweeps": sweeps,
                "gss_vs_lazy": ratio,
            },
            "right_recursion": {"engines": {"gss": {"growth": growth}}},
        }

    def test_healthy_run_passes(self):
        assert check_step_cell_floor(self.report_with(), self.FLOOR) == []

    def test_lr0_forks_fail(self):
        problems = check_step_cell_floor(self.report_with(sweeps=328), self.FLOOR)
        assert any("handles 328 positions" in p for p in problems)

    def test_ratio_under_floor_fails(self):
        problems = check_step_cell_floor(self.report_with(ratio=2.0), self.FLOOR)
        assert any("only 2.00x lazy" in p for p in problems)

    def test_quadratic_growth_fails(self):
        problems = check_step_cell_floor(self.report_with(growth=16.0), self.FLOOR)
        assert len([p for p in problems if "grows 16.00x" in p]) == 1

    def test_missing_sections_reported(self):
        problems = check_step_cell_floor({}, self.FLOOR)
        assert len(problems) == 2 and all("missing" in p for p in problems)

    def test_report_shape(self):
        report = {
            "lookahead": measure_lookahead(repeats=1),
            "right_recursion": measure_right_recursion(repeats=1),
        }
        lookahead = report["lookahead"]
        assert lookahead["lazy_forks"] > lookahead["gss_general_sweeps"]
        assert lookahead["gss_vs_lazy"] > 0
        engines = report["right_recursion"]["engines"]
        assert set(engines) == {"gss"}
        for data in engines.values():
            assert set(data["ms"]) == {"500", "2000"}
            assert data["growth"] > 0
        assert "growth" in render_step_cells(report)
