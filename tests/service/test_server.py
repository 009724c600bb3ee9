"""The serve loop and batch runner, including the stdio entry points."""

import io
import json
import subprocess
import sys

from repro.service import Dispatcher, serve, run_batch
from repro.bench.workloads import service_requests

OPEN = '{"cmd":"open","session":"s1","grammar":"START ::= B\\nB ::= true"}'
PARSE = '{"cmd":"parse","session":"s1","tokens":"true"}'


def serve_text(text: str):
    output = io.StringIO()
    serve(io.StringIO(text), output)
    return [json.loads(line) for line in output.getvalue().splitlines()]


class TestServeLoop:
    def test_one_response_line_per_request(self):
        responses = serve_text(OPEN + "\n" + PARSE + "\n" + PARSE + "\n")
        assert len(responses) == 3
        assert responses[0]["opened"] == "s1"
        assert responses[1]["cache"] is False
        assert responses[2]["cache"] is True
        assert all("time" in r for r in responses)

    def test_blank_and_comment_lines_are_skipped(self):
        responses = serve_text("\n# warm-up\n" + OPEN + "\n")
        assert len(responses) == 1

    def test_bad_json_yields_an_error_response_and_continues(self):
        responses = serve_text("{nope\n" + OPEN + "\n")
        assert "error" in responses[0]
        assert responses[1]["opened"] == "s1"

    def test_concatenated_requests_on_one_line(self):
        # `echo '...\n...'` under an escape-unaware shell: both objects on
        # one physical line, separated by a literal backslash-n.
        responses = serve_text(OPEN + "\\n" + PARSE + "\n")
        assert len(responses) == 2
        assert responses[1]["accepted"] is True

    def test_state_persists_across_lines(self):
        responses = serve_text(
            OPEN + "\n"
            + PARSE + "\n"
            + '{"cmd":"add-rule","session":"s1","rule":"B ::= false"}\n'
            + PARSE + "\n"
        )
        assert responses[1]["cache"] is False
        assert responses[3]["cache"] is False      # edit evicted the entry
        assert responses[3]["version"] == responses[1]["version"] + 1


class TestRunBatch:
    def test_summary_shape(self):
        responses, summary = run_batch([OPEN, PARSE, PARSE, "{broken"])
        assert summary["requests"] == 4
        assert summary["errors"] == 1
        assert summary["requests_per_second"] >= 0
        assert summary["cache"]["hits"] == 1
        assert len(responses) == 4

    def test_generated_service_traffic_runs_clean(self):
        requests = service_requests(sessions=3, requests_per_session=5, seed=1)
        dispatcher = Dispatcher()
        responses = [dispatcher.handle(r) for r in requests]
        assert not [r for r in responses if "error" in r]
        assert dispatcher.workspace.cache.stats.lookups > 0


class TestProcessEntryPoints:
    def test_python_dash_m_repro_serve(self):
        script = OPEN + "\n" + PARSE + "\n" + PARSE + "\n"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve"],
            input=script,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0
        responses = [json.loads(line) for line in completed.stdout.splitlines()]
        assert responses[1]["accepted"] is True
        assert [r.get("cache") for r in responses[1:]] == [False, True]

    def test_python_dash_m_repro_batch(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "batch"],
            input=OPEN + "\n" + PARSE + "\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0
        assert '"accepted":true' in completed.stdout
        summary = json.loads(completed.stderr.strip().splitlines()[-1])
        assert summary["requests"] == 2 and summary["errors"] == 0

    def test_unknown_subcommand_fails_with_usage(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "frobnicate"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 2
        assert "usage" in completed.stderr


class TestMalformedFieldTypes:
    def test_loop_survives_wrong_field_types(self):
        responses = serve_text(
            '{"cmd":"restore","snapshot":"not a dict"}\n'
            '{"cmd":"open","session":"a","grammar":123}\n'
            '{"cmd":"restore","session":"b","snapshot":{"format":1,'
            '"kind":"ipg-session","grammar":{"format":1,"text":123}}}\n'
            + OPEN + "\n"
        )
        assert all("error" in r for r in responses[:3])
        assert responses[3]["opened"] == "s1"      # the loop kept serving

    def test_batch_missing_file_fails_cleanly(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "batch", "/nonexistent.ndjson"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 2
        assert "cannot read" in completed.stderr
        assert "Traceback" not in completed.stderr

    def test_serve_survives_broken_pipe(self):
        class ClosedPipe(io.StringIO):
            def write(self, _text):
                raise BrokenPipeError()

        assert serve(io.StringIO(OPEN + "\n"), ClosedPipe()) == 0

    def test_help_piped_into_closed_reader_is_clean(self):
        completed = subprocess.run(
            f"{sys.executable} -m repro help | head -1",
            shell=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert "Traceback" not in completed.stderr
