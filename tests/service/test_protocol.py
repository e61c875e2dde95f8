"""Service-boundary protocol hardening (ISSUE 9 satellite).

The malformed-request matrix -- unknown fields, bad JSON, non-object
frames, non-overridable config keys, oversized frames -- must come back
as *per-request typed errors in batch order*, over **both** transports
(stdin stream and Unix socket), without costing the session or the
daemon.  Plus the admission-control layer: watermark hysteresis at the
unit level, and a flood integration test showing fast-fail
``overloaded`` (default) versus verified ``degraded`` responses
(``--degrade-under-load``).
"""

import io
import json
import socket
import threading
import time

import pytest

from repro.service import AdmissionController, Daemon, ServeConfig
from repro.obs.metrics import MetricsCollector

_OK_SOURCE = "int f(int x) { return x + 1; }"

#: (request line, expected status, expected reason-or-None)
_MATRIX = [
    (json.dumps({"id": 0, "source": _OK_SOURCE}), "ok", None),
    (json.dumps({"id": 1, "source": _OK_SOURCE, "wat": 1}),
     "error", "unknown-field"),
    ('{"id": 2, "source": unterminated', "error", "bad-json"),
    ("[1, 2, 3]", "error", "bad-json"),
    (json.dumps({"id": 4, "source": _OK_SOURCE,
                 "config": {"metrics": True}}), "error", "unknown-field"),
    (json.dumps({"id": 5}), "error", "bad-request"),
    (json.dumps({"id": 6, "source": 42}), "error", "bad-request"),
    (json.dumps({"id": 7, "source": _OK_SOURCE, "machine": "cray"}),
     "error", "bad-request"),
    (json.dumps({"id": 8, "source": _OK_SOURCE, "chaos_hang_s": 1.0}),
     "error", "bad-request"),
    (json.dumps({"id": 9, "source": _OK_SOURCE}), "cache-hit", None),
]


def _assert_matrix_answers(responses):
    assert len(responses) == len(_MATRIX)
    for pos, (response, (_line, status, reason)) in enumerate(
            zip(responses, _MATRIX)):
        assert response["status"] == status, (pos, response)
        if reason is not None:
            assert response["reason"] == reason, (pos, response)
        if status == "error":
            assert "error" in response  # human-readable detail
    # batch order is preserved; parseable requests echo their id and
    # unparseable ones fall back to the daemon's request ordinal (which,
    # on a fresh daemon, coincides with the position we sent them at)
    assert [r["id"] for r in responses] == list(range(10))


def _socket_daemon(config, sock_path):
    daemon = Daemon(config)
    ready = threading.Event()
    thread = threading.Thread(target=daemon.serve_socket,
                              args=(str(sock_path),),
                              kwargs={"ready": ready}, daemon=True)
    thread.start()
    assert ready.wait(10.0), "daemon socket never came up"
    return daemon, thread


def _shutdown(daemon, thread):
    daemon.request_shutdown()
    thread.join(timeout=15.0)
    assert not thread.is_alive(), "daemon failed to shut down"
    daemon.close()


def _recv_all(sk):
    sk.settimeout(30.0)
    data = b""
    while True:
        chunk = sk.recv(65536)
        if not chunk:
            break
        data += chunk
    return [json.loads(line) for line in data.decode("utf-8").splitlines()
            if line.strip()]


class TestMalformedMatrixOverStdin:
    def test_matrix_is_typed_in_order_and_session_survives(self):
        text = "".join(line + "\n" for line in _MATRIX_LINES())
        out = io.StringIO()
        with Daemon(ServeConfig(jobs=1)) as daemon:
            daemon.serve_stream(io.StringIO(text), out)
            responses = [json.loads(l)
                         for l in out.getvalue().splitlines()]
            _assert_matrix_answers(responses)
            # the same daemon keeps serving after the bad batch
            follow = daemon.serve_batch_lines(
                [json.dumps({"id": 99, "source": _OK_SOURCE})])
            assert follow[0]["status"] == "cache-hit"

    def test_oversized_line_is_typed_and_framing_survives(self):
        huge = json.dumps({"id": 0, "source": "int f(int x) { return "
                           + "x + 1 + 1 + 1 + 1 + 1" * 40 + "; }"})
        ok = json.dumps({"id": 1, "source": _OK_SOURCE})
        out = io.StringIO()
        config = ServeConfig(jobs=1, max_request_bytes=128)
        with Daemon(config) as daemon:
            daemon.serve_stream(io.StringIO(huge + "\n" + ok + "\n"), out)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [r["status"] for r in responses] == ["error", "ok"]
        assert responses[0]["reason"] == "oversized"
        assert responses[1]["id"] == 1


class TestMalformedMatrixOverSocket:
    def test_matrix_is_typed_in_order_over_a_socket(self, tmp_path):
        daemon, thread = _socket_daemon(ServeConfig(jobs=1),
                                        tmp_path / "serve.sock")
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sk:
                sk.connect(str(tmp_path / "serve.sock"))
                payload = "".join(line + "\n" for line in _MATRIX_LINES())
                sk.sendall(payload.encode("utf-8"))
                sk.shutdown(socket.SHUT_WR)
                responses = _recv_all(sk)
        finally:
            _shutdown(daemon, thread)
        _assert_matrix_answers(responses)

    def test_slow_loris_costs_only_its_session(self, tmp_path):
        """A client that stalls mid-line past ``--read-deadline`` gets
        its completed requests answered and its session closed; the next
        client is served normally."""
        config = ServeConfig(jobs=1, read_deadline_s=0.3)
        daemon, thread = _socket_daemon(config, tmp_path / "serve.sock")
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sk:
                sk.connect(str(tmp_path / "serve.sock"))
                sk.sendall((json.dumps({"id": 0, "source": _OK_SOURCE})
                            + "\n").encode("utf-8"))
                sk.sendall(b'{"id": 1, "source"')  # ...and stall forever
                responses = _recv_all(sk)  # deadline turns into our EOF
            assert [(r["id"], r["status"]) for r in responses] \
                == [(0, "ok")]
            # the listener survived; a well-behaved session still works
            deadline = time.monotonic() + 20.0
            while True:
                try:
                    sk = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sk.connect(str(tmp_path / "serve.sock"))
                    break
                except (ConnectionRefusedError, FileNotFoundError):
                    sk.close()
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            with sk:
                sk.sendall((json.dumps({"id": 2, "source": _OK_SOURCE})
                            + "\n").encode("utf-8"))
                sk.shutdown(socket.SHUT_WR)
                responses = _recv_all(sk)
            assert [(r["id"], r["status"]) for r in responses] \
                == [(2, "cache-hit")]
        finally:
            _shutdown(daemon, thread)


def _MATRIX_LINES():
    return [line for line, _status, _reason in _MATRIX]


class TestFrontEndErrorsAreTyped:
    """Lexer errors are typed front-end errors like parse and lowering
    errors: answered once as ``error``, never retried into a ``crash``
    quarantine."""

    @pytest.mark.parametrize("source,reason,where", [
        ("int f(int x) { return x + $; }", "LexError", "line 1"),
        ("int f(int x) {\n  /* never closed\n}", "LexError", "line 2"),
        ("int f(int x) {\n  return x + 09;\n}", "LexError", "line 2"),
        ("int f(int x) { return 0x; }", "LexError", "line 1"),
        ("int f(int x) {\n  return x + \u00b2;\n}", "LexError", "line 2"),
        ("int f(int x) { return 1\u00b2; }", "LexError", "line 1"),
        ('int f(int x) {\n  printf("a\nb");\n  return x + $;\n}',
         "LexError", "line 4"),
        ("int f(int x) { return x + ; }", "CParseError", "line 1"),
        ("int f(int x) { return y; }", "LowerError", "undeclared"),
        ("int f(int x) {\n  x = 1;\n  break;\n}", "LowerError",
         "line 3: break outside a loop"),
    ])
    def test_front_end_error_is_answered_typed(self, source, reason, where):
        with Daemon(ServeConfig(jobs=1)) as daemon:
            responses = daemon.serve_batch_lines(
                [json.dumps({"id": 0, "source": source}),
                 json.dumps({"id": 1, "source": _OK_SOURCE})])
        assert [r["status"] for r in responses] == ["error", "ok"]
        assert responses[0]["reason"] == reason
        assert where in responses[0]["error"]


class TestNestingLimits:
    """A source nested past the parser's limits is a typed front-end
    error, not a crash quarantine; one just under them compiles."""

    @staticmethod
    def _nested(levels, expr_levels=0):
        expr = "(" * expr_levels + "x - 1" + ")" * expr_levels
        return ("int f(int x) {\n" + "if (x > 0) {\n" * levels
                + f"x = {expr};\n" + "}\n" * levels + "return x;\n}\n")

    def test_too_deep_is_a_typed_error(self):
        deep_ifs = self._nested(200)
        deep_parens = ("int f(int x) { return " + "(" * 500 + "x"
                       + ")" * 500 + "; }")
        with Daemon(ServeConfig(jobs=1)) as daemon:
            responses = daemon.serve_batch_lines(
                [json.dumps({"id": 0, "source": deep_ifs}),
                 json.dumps({"id": 1, "source": deep_parens}),
                 json.dumps({"id": 2, "source": self._nested(199, 63)})])
        assert [r["status"] for r in responses] == ["error", "error", "ok"]
        assert [r.get("reason") for r in responses[:2]] == [
            "CParseError", "CParseError"]
        assert "line 201: statements nested deeper than 200 levels" in (
            responses[0]["error"])
        assert "expression nested deeper than 64 levels" in (
            responses[1]["error"])


class TestAdmissionHysteresis:
    def test_watermark_hysteresis(self):
        metrics = MetricsCollector()
        admission = AdmissionController(4, metrics=metrics)
        assert admission.low_water == 2  # defaults to high // 2
        assert not admission.update(4)   # at high water: still accepting
        assert admission.update(5)       # above: shed
        assert admission.update(3)       # between the marks: keep shedding
        assert not admission.update(2)   # at low water: recover
        assert admission.update(9)       # flap again
        assert admission.sheds == 2
        assert metrics.counters["service.admission.shed_start"] == 2
        assert metrics.counters["service.admission.shed_stop"] == 1

    def test_bad_watermarks_are_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(4, 4)
        with pytest.raises(ValueError):
            AdmissionController(4, 9)


class TestOverloadIntegration:
    def _flood(self, n):
        return "".join(
            json.dumps({"id": i, "source":
                        f"int flood{i}(int x) {{ return x * {i + 2}; }}"})
            + "\n" for i in range(n))

    def test_flood_fast_fails_typed_overloaded(self):
        config = ServeConfig(jobs=1, batch_size=1, high_water=2,
                             low_water=1)
        out = io.StringIO()
        with Daemon(config) as daemon:
            daemon.serve_stream(io.StringIO(self._flood(8)), out)
            counters = daemon.metrics.counters
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert len(responses) == 8  # every request answered, in order
        assert [r["id"] for r in responses] == list(range(8))
        statuses = [r["status"] for r in responses]
        assert "overloaded" in statuses
        shed = [r for r in responses if r["status"] == "overloaded"]
        assert all(r["reason"] == "queue-depth" for r in shed)
        assert all("retry" in r["error"] for r in shed)
        assert counters["service.admission.shed_start"] >= 1
        assert counters["service.status.overloaded"] == len(shed)

    def test_degrade_under_load_serves_verified_rung_down(self):
        config = ServeConfig(jobs=1, batch_size=1, high_water=2,
                             low_water=1, degrade_under_load=True)
        out = io.StringIO()
        with Daemon(config) as daemon:
            daemon.serve_stream(io.StringIO(self._flood(8)), out)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert len(responses) == 8
        statuses = [r["status"] for r in responses]
        assert "degraded" in statuses and "overloaded" not in statuses
        shed = [r for r in responses if r["status"] == "degraded"]
        # a degraded answer still carries a real, verified schedule
        assert all(r["reason"] == "overload" and "assembly" in r
                   for r in shed)
