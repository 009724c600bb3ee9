"""Snapshot persistence: a snapshot is grammar text plus version, and a
restored session answers exactly as the session it was taken from."""

import json
import os

from repro.service import (
    Dispatcher,
    load_session,
    save_session,
    session_from_dict,
    session_to_dict,
)
from repro.service.workspace import ParseSession

import pytest

#: Unambiguous expression grammar — SLR(1)-deterministic.
EXPR = """
    START ::= E
    E ::= E + T
    E ::= T
    T ::= T * F
    T ::= F
    F ::= n
    F ::= ( E )
"""

#: Ambiguous grammar — no deterministic table exists.
AMBIGUOUS = """
    START ::= E
    E ::= n
    E ::= E + E
"""

SENTENCES = ["n", "n + n", "n + n * n", "( n + n ) * n", "n +", "* n"]

#: Snapshots written while conflict-free sessions still shipped their
#: SLR(1) table: ``deterministic`` is the EXPR session as it was saved,
#: ``conflicted`` an AMBIGUOUS session carrying its (conflicted) table.
V7_SNAPSHOTS = os.path.join(os.path.dirname(__file__), "data", "v7_snapshots.json")


def span_names(span):
    """The shape of a span tree: names only, attributes dropped."""
    return [span["name"], [span_names(child) for child in span.get("children", ())]]


def traced_spans(session: ParseSession, sentences):
    """Span-name trees of one traced ``parse`` per sentence."""
    dispatcher = Dispatcher()
    dispatcher.workspace.adopt(session)
    shapes = []
    for sentence in sentences:
        response = dispatcher.handle({
            "cmd": "parse", "session": session.name, "tokens": sentence,
            "trace": True, "cache": False,
        })
        shapes.append(span_names(response["trace"]))
    return shapes


def equivalent(left: ParseSession, right: ParseSession, sentences) -> None:
    """Whole payloads (``engine``, ``trees``, ``ambiguity``,
    ``diagnostics``) agree, and so does the shape of a traced request."""
    for sentence in sentences:
        assert left.parse_payload(sentence) == right.parse_payload(sentence), sentence
        assert left.recognize_payload(sentence) == right.recognize_payload(
            sentence
        ), sentence
    assert traced_spans(left, sentences) == traced_spans(right, sentences)


class TestRoundTrip:
    def test_snapshot_is_grammar_text_plus_version(self):
        session = ParseSession("expr", EXPR)
        payload = session_to_dict(session)
        assert set(payload) == {"format", "kind", "session", "version", "grammar"}
        restored = session_from_dict(payload)
        assert restored.version == session.version
        equivalent(session, restored, SENTENCES)

    def test_ambiguous_grammar_ships_no_table(self):
        session = ParseSession("amb", AMBIGUOUS)
        payload = session_to_dict(session)
        assert "table" not in payload
        restored = session_from_dict(payload)
        equivalent(session, restored, ["n", "n + n", "n + n + n", "+ n"])

    def test_ambiguous_tree_counts_survive(self):
        session = ParseSession("amb", AMBIGUOUS)
        restored = session_from_dict(session_to_dict(session))
        assert len(restored.parse_payload("n + n + n")["trees"]) == 2

    def test_empty_session_round_trips(self):
        restored = session_from_dict(session_to_dict(ParseSession("empty")))
        assert len(restored.language.grammar) == 0
        assert restored.parse_payload("x")["accepted"] is False

    def test_sorts_survive_the_round_trip(self):
        session = ParseSession("fwd", "START ::= CMD\nCMD ::= turn N",
                               sorts=["N"])
        restored = session_from_dict(session_to_dict(session))
        # N must still be a non-terminal: defining it now must take effect.
        assert restored.add_rule("N ::= 1")
        assert restored.recognize_payload("turn 1")["accepted"] is True

    def test_disk_round_trip(self, tmp_path):
        path = str(tmp_path / "expr.session.json")
        session = ParseSession("expr", EXPR)
        save_session(session, path)
        restored = load_session(path)
        assert restored.name == "expr"
        equivalent(session, restored, SENTENCES)

    def test_restore_under_a_new_name(self, tmp_path):
        path = str(tmp_path / "expr.session.json")
        save_session(ParseSession("expr", EXPR), path)
        assert load_session(path, name="clone").name == "clone"

    def test_bad_payloads_are_rejected(self):
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            session_from_dict({"format": 99, "kind": "ipg-session"})
        with pytest.raises(ServiceError):
            session_from_dict({"format": 1, "kind": "something-else"})


class TestThroughTheProtocol:
    def test_snapshot_restore_exchange(self, tmp_path):
        path = str(tmp_path / "s1.session.json")
        d = Dispatcher()
        d.handle({"cmd": "open", "session": "s1", "grammar": EXPR})
        saved = d.handle({"cmd": "snapshot", "session": "s1", "path": path})
        assert saved["saved"] == path
        assert "deterministic" not in saved

        restored = d.handle({"cmd": "restore", "session": "warm", "path": path})
        assert set(restored) == {
            "cmd", "restored", "rules", "session", "time", "version"
        }
        assert restored["version"] == 7

        cold = d.handle({"cmd": "parse", "session": "s1", "tokens": "n + n"})
        warm = d.handle({"cmd": "parse", "session": "warm", "tokens": "n + n"})
        assert warm["accepted"] and warm["trees"] == cold["trees"]
        assert warm["engine"] == cold["engine"] == "gss"    # a plain parse

    def test_inline_snapshot_payload(self):
        d = Dispatcher()
        d.handle({"cmd": "open", "session": "s1", "grammar": AMBIGUOUS})
        snap = d.handle({"cmd": "snapshot", "session": "s1"})
        assert "deterministic" not in snap
        restored = d.handle(
            {"cmd": "restore", "session": "s2", "snapshot": snap["snapshot"]}
        )
        assert restored["restored"] == "s2"
        response = d.handle({"cmd": "parse", "session": "s2",
                             "tokens": "n + n + n"})
        assert response["tree_count"] == 2

    def test_restore_refuses_to_clobber_without_force(self):
        d = Dispatcher()
        d.handle({"cmd": "open", "session": "s1", "grammar": AMBIGUOUS})
        snap = d.handle({"cmd": "snapshot", "session": "s1"})["snapshot"]
        clash = d.handle({"cmd": "restore", "session": "s1", "snapshot": snap})
        assert "error" in clash
        forced = d.handle({"cmd": "restore", "session": "s1",
                           "snapshot": snap, "force": True})
        assert forced["restored"] == "s1"


class TestVersionContinuity:
    def test_restore_never_regresses_the_version(self):
        session = ParseSession("s", AMBIGUOUS)
        for _ in range(3):                      # edit churn: +6 revisions
            session.add_rule("E ::= maybe")
            session.delete_rule("E ::= maybe")
        saved_version = session.version
        restored = session_from_dict(session_to_dict(session))
        assert restored.version == saved_version
        restored.add_rule("E ::= extra")
        assert restored.version == saved_version + 1


class TestPreChangeSnapshots:
    """Snapshot files that still carry a ``"table"`` restore, and the
    table is ignored: the session answers as a cold one would."""

    @pytest.fixture
    def saved(self):
        with open(V7_SNAPSHOTS) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("which", ["deterministic", "conflicted"])
    def test_table_is_ignored_on_restore(self, saved, which):
        text, sentences = {
            "deterministic": (EXPR, SENTENCES),
            "conflicted": (AMBIGUOUS, ["n", "n + n", "n + n + n", "+ n"]),
        }[which]
        payload = saved[which]
        assert payload["table"] is not None
        restored = session_from_dict(payload)
        assert restored.version == payload["version"]
        equivalent(ParseSession(payload["session"], text), restored, sentences)

    def test_stale_table_is_ignored_on_restore(self, saved, tmp_path):
        # The grammar changed after the table was generated: the table
        # no longer matches, and restore must not care.
        payload = saved["deterministic"]
        payload["grammar"]["text"] += "\nF ::= maybe"
        path = str(tmp_path / "stale.session.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        d = Dispatcher()
        restored = d.handle({"cmd": "restore", "session": "stale", "path": path})
        assert "error" not in restored, restored
        cold = ParseSession("stale", EXPR + "\nF ::= maybe")
        equivalent(cold, d.workspace.get("stale"), SENTENCES + ["maybe * n"])

