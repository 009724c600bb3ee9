"""metrics-export under fire: exports racing live parse traffic.

The export path snapshots the global registry (plus, in process mode,
every child registry) while workers are mid-increment.  These tests
hammer exactly that interleaving and check the two invariants a torn
snapshot breaks: counter series are monotone non-decreasing across
successive exports, and a process-mode merge equals the sum of its
parts.  The global registry is never reset — all assertions are deltas
or monotonicity, never absolute totals.
"""

import threading

import pytest

from repro.service import Scheduler

GRAMMAR = "START ::= B\nB ::= true\nB ::= false\nB ::= B or B\nB ::= B and B"

INPUTS = ["true", "false or true", "true and false or true", "false and false"]


def run_threads(workers):
    threads = [threading.Thread(target=worker) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)


# Collector-fed families are sums over *live* owners (languages,
# workspaces, schedulers) — an unrelated test's owner being garbage
# collected mid-hammer legitimately lowers them.  Monotonicity only
# holds for real instrument counters, so the check skips these.
_COLLECTED = (
    "repro.generator.",
    "repro.compiled.",
    "repro.result_cache.",
    "repro.workspace.",
    "repro.shard.",
)


def _counter_items(metrics, skip_collected=False):
    return {
        key: entry["value"]
        for key, entry in metrics.items()
        if isinstance(entry, dict)
        and entry.get("type") == "counter"
        and not (skip_collected and key.startswith(_COLLECTED))
    }


def _hammer(scheduler, sessions, parses_per_session, exports, errors):
    """Build the worker closures: one parser per session plus one exporter."""

    def parser(name):
        def work():
            try:
                for step in range(parses_per_session):
                    response = scheduler.handle(
                        {
                            "cmd": "parse",
                            "session": name,
                            "tokens": INPUTS[step % len(INPUTS)],
                        }
                    )
                    assert response["accepted"], response
            except Exception as error:  # noqa: BLE001 — collected for assert
                errors.append(error)

        return work

    def exporter():
        try:
            for _ in range(12):
                response = scheduler.handle(
                    {"cmd": "metrics-export", "format": "json"}
                )
                assert "error" not in response, response
                exports.append(response)
        except Exception as error:  # noqa: BLE001 — collected for assert
            errors.append(error)

    return [parser(name) for name in sessions] + [exporter]


def _assert_counters_monotone(exports):
    assert len(exports) >= 2
    previous = _counter_items(exports[0]["metrics"], skip_collected=True)
    for response in exports[1:]:
        current = _counter_items(response["metrics"], skip_collected=True)
        for key, before in previous.items():
            after = current.get(key)
            if after is None:
                continue  # series vanished (e.g. collector owner died)
            assert after >= before, f"{key} went backwards: {before} -> {after}"
        previous = current


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_exports_race_parses_and_counters_stay_monotone(mode):
    sessions = [f"obs-c-{mode}-{i}" for i in range(6)]
    exports, errors = [], []
    # Thread mode is one inline shard; process mode shards across two.
    workers = 2 if mode == "process" else 1
    with Scheduler(workers=workers, mode=mode) as scheduler:
        for name in sessions:
            assert "error" not in scheduler.handle(
                {"cmd": "open", "session": name, "grammar": GRAMMAR}
            )
        baseline = scheduler.handle({"cmd": "metrics-export", "format": "json"})
        run_threads(_hammer(scheduler, sessions, 40, exports, errors))
        final = scheduler.handle({"cmd": "metrics-export", "format": "json"})
    assert not errors
    exports.insert(0, baseline)
    exports.append(final)
    _assert_counters_monotone(exports)
    # all the work is visible in the final export: the request counter
    # grew by at least one per submitted parse (deltas, never absolutes —
    # the registry is global and other tests feed it too)
    key = 'repro.service.requests{cmd="parse"}'
    submitted = len(sessions) * 40
    before = _counter_items(baseline["metrics"]).get(key, 0)
    after = _counter_items(final["metrics"])[key]
    assert after - before >= submitted


def test_process_mode_merge_equals_shard_sums_under_load():
    sessions = [f"obs-m-{i}" for i in range(6)]
    exports, errors = [], []
    with Scheduler(workers=3, mode="process") as scheduler:
        for name in sessions:
            assert "error" not in scheduler.handle(
                {"cmd": "open", "session": name, "grammar": GRAMMAR}
            )
        run_threads(_hammer(scheduler, sessions, 30, exports, errors))
    assert not errors
    # every export taken mid-hammer must already balance: each snapshot
    # set (shards + parent) was collected for that one merge
    for response in exports:
        parts = list(response["shards"]) + [response["parent"]]
        merged = _counter_items(response["metrics"])
        for key, value in merged.items():
            total = sum(
                part[key]["value"] for part in parts if key in part
            )
            assert value == total, f"{key}: merged {value} != parts {total}"
