"""Grammar serialization round trips and crash-safe payload writes."""

import json

import pytest

from repro import Language
from repro.lr.serialize import (
    grammar_from_dict,
    grammar_to_dict,
    load_payload,
    save_payload,
)

from ..conftest import toks


class TestRoundTrip:
    def test_dict_round_trip_preserves_behavior(self, booleans):
        clone = grammar_from_dict(grammar_to_dict(booleans))
        assert clone.rules == booleans.rules
        lang = Language(clone)
        assert lang.recognize(toks("true or false and true"))
        assert not lang.recognize(toks("or"))

    def test_file_round_trip(self, booleans, tmp_path):
        path = str(tmp_path / "booleans.grammar.json")
        save_payload(grammar_to_dict(booleans), path)
        clone = grammar_from_dict(load_payload(path))
        assert clone.rules == booleans.rules
        assert Language(clone).recognize(toks("true"))

    def test_output_is_stable_json(self, booleans):
        first = json.dumps(grammar_to_dict(booleans), sort_keys=True)
        second = json.dumps(
            grammar_to_dict(grammar_from_dict(json.loads(first))), sort_keys=True
        )
        assert first == second
        assert json.loads(first)["format"] == 1


class TestErrors:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            grammar_from_dict({"format": 99})


class TestCrashSafeWrites:
    """``save_payload`` must never leave a truncated file at the target path."""

    def test_interrupted_write_preserves_previous_payload(self, tmp_path, monkeypatch):
        from repro.lr import serialize

        path = str(tmp_path / "snapshot.json")
        serialize.save_payload({"generation": 1}, path)

        real_dump = json.dump

        def dump_then_die(payload, handle, **kwargs):
            real_dump(payload, handle, **kwargs)
            handle.flush()
            raise OSError("disk full")

        monkeypatch.setattr(serialize.json, "dump", dump_then_die)
        with pytest.raises(OSError):
            serialize.save_payload({"generation": 2}, path)
        monkeypatch.undo()

        # The target still holds the previous complete payload, and the
        # failed attempt left no temp litter behind.
        assert serialize.load_payload(path) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]

    def test_fresh_write_is_all_or_nothing(self, tmp_path, monkeypatch):
        from repro.lr import serialize

        path = str(tmp_path / "new.json")

        def die_immediately(payload, handle, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(serialize.json, "dump", die_immediately)
        with pytest.raises(OSError):
            serialize.save_payload({"generation": 1}, path)
        monkeypatch.undo()
        # No file appears at all — a watcher can never read a fragment.
        assert list(tmp_path.iterdir()) == []
