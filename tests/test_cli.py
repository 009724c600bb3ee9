"""The interactive REPL, driven through scripted sessions."""

import json
import subprocess
import sys

import pytest

from repro.cli import ReplSession, main, run_session


class TestSession:
    def test_build_and_parse(self):
        output = run_session(
            [
                "add B ::= true",
                "add B ::= B or B",
                "add START ::= B",
                "parse true or true",
            ]
        )
        assert any("accepted (1 parse)" in line for line in output)
        assert any("B(B(true) or B(true))" in line for line in output)

    def test_ambiguous_parse_lists_every_tree(self):
        output = run_session(
            [
                "add E ::= n",
                "add E ::= E + E",
                "add START ::= E",
                "parse n + n + n",
            ]
        )
        assert any("accepted (2 parses)" in line for line in output)

    def test_trees_toggle(self):
        output = run_session(
            [
                "add B ::= x",
                "add START ::= B",
                "trees off",
                "parse x",
            ]
        )
        assert not any("B(x)" in line for line in output)

    def test_incremental_edit_cycle(self):
        output = run_session(
            [
                "add B ::= true",
                "add START ::= B",
                "recognize unknown",
                "add B ::= unknown",
                "recognize unknown",
                "delete B ::= unknown",
                "recognize unknown",
            ]
        )
        verdicts = [line for line in output if line in ("accepted", "rejected")]
        assert verdicts == ["rejected", "accepted", "rejected"]

    def test_sort_declaration_for_forward_reference(self):
        output = run_session(
            [
                "sort N",
                "add CMD ::= turn N",
                "add N ::= 1",
                "add START ::= CMD",
                "recognize turn 1",
            ]
        )
        assert output[-1] == "accepted"

    def test_sorts_and_edits_live_on_the_language(self):
        from repro import obs

        added = obs.counter("repro.generator.modify", op="add")
        deleted = obs.counter("repro.generator.modify", op="delete")
        adds, deletes = added.value, deleted.value
        session = ReplSession()
        for line in ("sort N", "add START ::= turn N", "add N ::= left",
                     "add N ::= left", "delete N ::= left"):
            session.execute(line)
        assert session.language.sorts == {"N"}
        # the repeated add is a no-op: only applied edits count
        assert (added.value, deleted.value) == (adds + 2, deletes + 1)

    def test_show_and_summary_and_fraction(self):
        output = run_session(
            [
                "add B ::= x",
                "add START ::= B",
                "parse x",
                "show",
                "summary",
                "fraction",
            ]
        )
        assert any("B ::= x" in line for line in output)
        assert any("states=" in line for line in output)
        assert any("% of the full table" in line for line in output)

    def test_gc_command(self):
        output = run_session(
            [
                "add B ::= x",
                "add START ::= B",
                "parse x",
                "gc",
            ]
        )
        assert any("reclaimed" in line for line in output)

    def test_errors_are_reported_not_raised(self):
        output = run_session(["add B -> x"])
        assert any(line.startswith("error:") for line in output)

    def test_unknown_command(self):
        output = run_session(["frobnicate"])
        assert "unknown command" in output[0]

    def test_help_and_quit(self):
        session = ReplSession()
        assert "commands:" in session.execute("help")[0]
        assert session.execute("quit") == ["bye"]
        assert session.finished

    def test_blank_lines_and_comments_ignored(self):
        assert run_session(["", "   ", "# nothing"]) == []

    def test_parse_before_start_rule(self):
        output = run_session(["parse x"])
        assert output == ["rejected"]

    def test_fraction_before_start_rule(self):
        assert run_session(["fraction"]) == ["no START rule yet"]

    def test_duplicate_add_reported(self):
        output = run_session(["add B ::= x", "add B ::= x"])
        assert output[-1] == "(rule already present)"

    def test_delete_missing_reported(self):
        assert run_session(["delete B ::= x"]) == ["(no such rule)"]

    def test_rejection_prints_expected_set(self):
        output = run_session(
            [
                "add B ::= true",
                "add B ::= false",
                "add START ::= B",
                "parse true true",
            ]
        )
        assert output[-2] == "rejected"
        assert "expected:" in output[-1] and "$" in output[-1]


class TestEngineCommand:
    def test_listing_marks_the_default(self):
        output = run_session(["engine"])
        assert any(line.startswith("* gss") for line in output)
        assert sum(line.startswith("*") for line in output) == 1

    def test_switching_engines(self):
        output = run_session(
            [
                "add B ::= x",
                "add START ::= B",
                "engine earley",
                "parse x",
                "recognize y",
            ]
        )
        assert "engine set to earley" in output
        assert any("builds no trees" in line for line in output)
        assert output[-2] == "rejected"

    def test_unknown_engine_reported(self):
        output = run_session(["engine warp"])
        assert "unknown engine" in output[0]


class TestLexerCommand:
    def test_show_current(self):
        output = run_session(["lexer"])
        assert output[0].startswith("lexer: whitespace")

    def test_scanner_lexes_punctuation_without_blanks(self):
        output = run_session(
            [
                "sort E T F",
                "add E ::= E + T",
                "add E ::= T",
                "add T ::= T * F",
                "add T ::= F",
                "add F ::= n",
                "add F ::= ( E )",
                "add START ::= E",
                "lexer scanner",
                "recognize (n+n)*n",
            ]
        )
        assert output[-1] == "accepted"

    def test_scanner_follows_live_edits(self):
        output = run_session(
            [
                "add B ::= x",
                "add START ::= B",
                "lexer scanner",
                "recognize x",
                "add B ::= B y B",
                "recognize xyx",
                "lexer whitespace",
                "recognize x",
            ]
        )
        verdicts = [line for line in output if line in ("accepted", "rejected")]
        assert verdicts == ["accepted", "accepted", "accepted"]

    def test_usage_message(self):
        assert run_session(["lexer klingon"]) == [
            "usage: lexer [whitespace|scanner]"
        ]


class TestProcessEntryPoint:
    def test_python_dash_m_repro(self):
        script = "add B ::= hi\nadd START ::= B\nrecognize hi\nquit\n"
        completed = subprocess.run(
            [sys.executable, "-m", "repro"],
            input=script,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0
        assert "accepted" in completed.stdout
        assert "bye" in completed.stdout


class TestEditCommand:
    GRAMMAR = [
        "add E ::= a",
        "add E ::= b",
        "add E ::= E + a",
        "add E ::= E + b",
        "add START ::= E",
    ]

    def test_edit_reparses_incrementally(self):
        out = run_session(self.GRAMMAR + ["parse a + a + a", "edit 2 3 b"])
        assert "edited [2:3] -> 'b' (re-parsed 3 of 5 tokens)" in out
        assert "  START(E(E(E(a) + b) + a))" in out

    def test_edit_after_recognize(self):
        out = run_session(self.GRAMMAR + ["recognize a + a", "edit 2 3 b"])
        assert out[-1] == "accepted"

    def test_edit_converges_without_reparsing_the_suffix(self):
        out = run_session(self.GRAMMAR + ["recognize a + a + b + a", "edit 0 0"])
        assert any("converged at token 0" in line for line in out)

    def test_edit_chain_uses_previous_result(self):
        out = run_session(
            self.GRAMMAR + ["parse a + a", "edit 2 3 b", "edit 0 1 b"]
        )
        assert "  START(E(E(b) + b))" in out

    def test_edit_without_a_previous_parse(self):
        assert run_session(["edit 0 0"]) == [
            "nothing to edit — parse or recognize an input first"
        ]

    def test_edit_usage_errors(self):
        out = run_session(self.GRAMMAR + ["parse a", "edit x y", "edit 1"])
        assert out.count("usage: edit <start> <end> [replacement tokens...]") == 2

    def test_edit_out_of_range_reported(self):
        out = run_session(self.GRAMMAR + ["parse a", "edit 0 9 b"])
        assert any(line.startswith("error: edit range") for line in out)

    def test_rejecting_edit_prints_diagnostic(self):
        out = run_session(self.GRAMMAR + ["parse a + a", "edit 1 2 b"])
        assert "rejected" in out
        assert any("expected" in line for line in out)


class TestTraceCommand:
    GRAMMAR = [
        "sort B",  # B is used before its rules exist
        "add START ::= B",
        "add B ::= true",
        "add B ::= false",
        "add B ::= B or B",
    ]

    def test_accepted_trace_lists_moves_with_positions(self):
        out = run_session(self.GRAMMAR + ["engine lazy", "trace true or false"])
        assert any(
            line.startswith("accepted — ") and "(engine lazy)" in line
            for line in out
        )
        shifts = [line for line in out if line.strip().startswith("shift")]
        assert shifts
        assert "token 0 'true' at line 1, column 1" in shifts[0]
        assert any("rule=(B ::= true)" in line for line in out)
        assert any(line.strip().startswith("accept") for line in out)

    def test_rejected_trace_keeps_the_diagnostic(self):
        out = run_session(self.GRAMMAR + ["engine lazy", "trace true or or"])
        assert any(line.startswith("rejected — ") for line in out)
        assert any("expected" in line for line in out)

    def test_usage_without_tokens(self):
        assert run_session(["trace"]) == ["usage: trace <tokens>"]

    def test_engine_without_lr_moves_says_so(self):
        out = run_session(self.GRAMMAR + ["engine earley", "trace true"])
        assert any("records no LR moves; lazy does" in line for line in out)

    def test_default_gss_engine_without_lr_moves_says_so(self):
        out = run_session(self.GRAMMAR + ["engine gss", "trace true"])
        assert any("records no LR moves; lazy does" in line for line in out)

    def test_trace_does_not_disturb_the_edit_base(self):
        out = run_session(
            self.GRAMMAR
            + ["parse true or false", "trace false", "edit 0 1 false"]
        )
        assert any(line.startswith("edited [0:1]") for line in out)


class TestObsCommand:
    @pytest.fixture(autouse=True)
    def _restore_slowlog(self):
        yield
        from repro import obs

        obs.set_slow_threshold(None)

    def test_demo_prints_a_prometheus_catalog(self, capsys):
        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_lazy_table_fraction gauge" in out
        assert "repro_service_requests" in out
        assert 'repro_incremental_reparse{outcome="resumed"' in out

    def test_json_format_with_spans(self, capsys):
        assert main(["obs", "--format", "json", "--spans", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" in payload and "spans" in payload
        assert payload["metrics"]["repro.lazy.table_fraction"]["value"] > 0
        assert any(tree["name"] == "request" for tree in payload["spans"])

    def test_spans_render_to_stderr_in_prometheus_mode(self, capsys):
        assert main(["obs", "--spans", "2"]) == 0
        captured = capsys.readouterr()
        assert "request" in captured.err
        assert "# TYPE" not in captured.err

    def test_negative_slow_ms_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["obs", "--slow-ms", "-1"])
        assert "--slow-ms must be non-negative" in capsys.readouterr().err


class TestServeFlagValidation:
    def test_negative_slow_ms_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--slow-ms", "-0.5"])
        assert "--slow-ms must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_deadline_must_be_positive_and_finite(self, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", f"--deadline-ms={value}"])
        assert exit_info.value.code == 2
        assert "--deadline-ms must be positive and finite" in (
            capsys.readouterr().err
        )

    def test_thread_mode_with_several_workers_is_refused(self, capsys):
        # Refused by the Scheduler before any socket or child exists.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--tcp", "127.0.0.1:0", "--workers", "2",
                  "--mode", "thread"])
        assert exit_info.value.code == 2
        assert "one inline shard" in capsys.readouterr().err


class TestDeletedShardFlags:
    """Only ``serve`` still takes ``--mode``; ``obs`` runs one shard."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "--mode", "thread"],
            ["corpus", "--root", "unused", "info", "--mode", "process"],
            ["obs", "--workers", "2"],
        ],
        ids=["batch-mode", "corpus-mode", "obs-workers"],
    )
    def test_deleted_shard_flags_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
