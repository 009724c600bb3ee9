"""Property: concurrent sessions never observe a torn grammar version.

Each session is driven by one shard thread (single-writer), so from any
one session's point of view its request stream is strictly sequential
even while other sessions' clients submit from other threads.  The
observable contract: every ``parse``/``recognize`` response's
``version`` equals exactly the version produced by the edits that
session had issued before it — never a neighbour's version, never a
half-applied one, never a stale one.  Hypothesis drives randomized
per-session scripts of unique-rule edits and parses, executed
concurrently (one client thread per session, like real connections,
all queueing into one inline shard), and the invariant is checked per
session against the version arithmetic of the sequential semantics.
"""

import threading

from hypothesis import given, settings, strategies as st

from repro.service import Scheduler

GRAMMAR = "START ::= B\nB ::= true\nB ::= false\nB ::= B or B"

#: per-session script: each element is "edit" or a sentence to parse
scripts = st.lists(
    st.lists(
        st.one_of(
            st.just("edit"),
            st.sampled_from(["true", "false", "true or false", "true or true or false"]),
        ),
        min_size=1,
        max_size=10,
    ),
    min_size=2,
    max_size=5,
)


@settings(max_examples=15, deadline=None)
@given(scripts)
def test_versions_are_never_torn(session_scripts):
    with Scheduler(max_depth=4096) as scheduler:
        observations = {}
        failures = []

        def client(name, script):
            def body():
                try:
                    opened = scheduler.handle(
                        {"cmd": "open", "session": name, "grammar": GRAMMAR}
                    )
                    observed = [("open", opened)]
                    for step, op in enumerate(script):
                        if op == "edit":
                            response = scheduler.handle(
                                {
                                    "cmd": "add-rule",
                                    "session": name,
                                    # unique per step: every edit really bumps
                                    "rule": f"B ::= extra{step}",
                                }
                            )
                            observed.append(("edit", response))
                        else:
                            response = scheduler.handle(
                                {"cmd": "parse", "session": name, "tokens": op}
                            )
                            observed.append(("parse", response))
                    observations[name] = observed
                except Exception as error:  # noqa: BLE001 — test thread
                    failures.append((name, error))

            return body

        threads = [
            threading.Thread(target=client(f"u{index}", script))
            for index, script in enumerate(session_scripts)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures
        assert len(observations) == len(session_scripts)

        for name, observed in observations.items():
            kind, opened = observed[0]
            assert kind == "open" and "error" not in opened, opened
            version = opened["version"]
            for kind, response in observed[1:]:
                assert "error" not in response, (name, response)
                if kind == "edit":
                    assert response["added"] is True
                    # an applied edit advances the version by exactly one
                    assert response["version"] == version + 1, (name, response)
                    version += 1
                else:
                    assert response["accepted"] is True
                    # a parse reports exactly the version its session had —
                    # a torn read would surface a neighbour's count here
                    assert response["version"] == version, (name, response)
