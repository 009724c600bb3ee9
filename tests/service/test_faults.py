"""The fault-injection harness: arming, firing, and env activation."""

import asyncio
import time

import pytest

from repro.service import faults


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


class TestArming:
    def test_unarmed_points_never_fire(self):
        for point in faults.POINTS:
            assert not faults.fire(point)

    def test_fire_consumes_armed_count(self):
        faults.arm("kill-child", times=2)
        assert faults.fire("kill-child")
        assert faults.fire("kill-child")
        assert not faults.fire("kill-child")

    def test_unbounded_arming(self):
        faults.arm("delay", times=None)
        assert all(faults.fire("delay") for _ in range(10))
        faults.disarm("delay")
        assert not faults.fire("delay")

    def test_unknown_point_is_rejected(self):
        with pytest.raises(ValueError):
            faults.arm("meteor-strike")
        with pytest.raises(ValueError):
            faults.fire("meteor-strike") if False else faults.disarm("nope")

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            faults.arm("delay", times=0)
        with pytest.raises(ValueError):
            faults.arm("delay", delay_ms=-1)

    def test_active_snapshot(self):
        faults.arm("queue-stall", times=3, delay_ms=25)
        active = faults.active()
        assert active == {"queue-stall": {"remaining": 3, "delay_ms": 25}}

    def test_reset_clears_everything(self):
        faults.arm("kill-child", times=None)
        faults.arm("delay")
        faults.reset()
        assert faults.active() == {}


class TestSleepIfArmed:
    def test_sleeps_the_armed_delay(self):
        faults.arm("delay", times=1, delay_ms=30)
        started = time.monotonic()
        assert asyncio.run(faults.sleep_if_armed("delay"))
        assert (time.monotonic() - started) >= 0.025
        assert not asyncio.run(faults.sleep_if_armed("delay"))

    def test_noop_when_unarmed(self):
        started = time.monotonic()
        assert not asyncio.run(faults.sleep_if_armed("delay"))
        assert (time.monotonic() - started) < 0.02


class TestEnvActivation:
    def test_spec_parsing(self):
        count = faults.load_env("kill-child:1,delay:3:50")
        assert count == 2
        assert faults.active() == {
            "kill-child": {"remaining": 1, "delay_ms": 0.0},
            "delay": {"remaining": 3, "delay_ms": 50.0},
        }

    def test_bare_point_defaults_to_once(self):
        faults.load_env("corrupt-frame")
        assert faults.active()["corrupt-frame"]["remaining"] == 1

    def test_unbounded_spellings(self):
        faults.load_env("delay:inf,queue-stall:*:5")
        assert faults.active()["delay"]["remaining"] is None
        assert faults.active()["queue-stall"]["remaining"] is None

    def test_empty_and_whitespace_specs(self):
        assert faults.load_env("") == 0
        assert faults.load_env(" , ,") == 0

    def test_malformed_specs_raise(self):
        with pytest.raises(ValueError):
            faults.load_env("kill-child:1:2:3")
        with pytest.raises(ValueError):
            faults.load_env("not-a-point")
        with pytest.raises(ValueError):
            faults.load_env("delay:soon")
