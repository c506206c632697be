"""HttpBackend against an in-process loopback completions server: requests
in flight at once under ``--jobs``, and which failures are retried."""
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from corefkit import pipeline
from corefkit.cli import main
from corefkit.conllu import serialize_corpus
from corefkit.pipeline import (BackendError, HttpBackend, PermanentBackendError,
                               PipelineConfig, annotate_document,
                               export_training_pairs, load_pairs)
from corefkit.synth import SynthConfig, random_corpus


class Loopback(ThreadingHTTPServer):
    """Answers each prompt with its gold completion (404 when it has none).

    ``script`` holds (status, headers, body) replies served first, one per
    request. When ``gate`` is set, the first two requests wait on it, so they
    are answered only if both are in flight at once.
    """

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.gold: dict[str, str] = {}
        self.script: list[tuple[int, dict, bytes]] = []
        self.gate: threading.Barrier | None = None
        self.requests = 0
        self.lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/completions"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass

    def _reply(self, status: int, headers: dict, body: bytes) -> None:
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        server = self.server
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["prompt"]
        with server.lock:
            server.requests += 1
            held = server.gate is not None and server.requests <= 2
            scripted = server.script.pop(0) if server.script else None
        if held:
            try:
                server.gate.wait()
            except threading.BrokenBarrierError:
                return self._reply(400, {}, b'{"error": "requests ran one at a time"}')
        if scripted:
            return self._reply(*scripted)
        if prompt not in server.gold:
            return self._reply(404, {}, b'{"error": "unknown prompt"}')
        body = {"choices": [{"text": server.gold[prompt], "index": 0}]}
        self._reply(200, {}, json.dumps(body).encode())


@pytest.fixture
def loopback():
    server = Loopback()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def sleeps(monkeypatch):
    waited: list[float] = []
    monkeypatch.setattr(pipeline, "_sleep", waited.append)
    return waited


def test_jobs_keep_requests_in_flight_concurrently(loopback, tmp_path):
    corpus = tmp_path / "corpus.conllu"
    corpus.write_text(serialize_corpus(random_corpus(
        8, SynthConfig(seed=6, sentences=(2, 14)), seed=6).datasets[0][1]), encoding="utf-8")
    pairs = tmp_path / "pairs.jsonl"
    assert main(["export-train", str(corpus), "-o", str(pairs)]) == 0
    loopback.gold = {p.prompt: p.completion for p in load_pairs(str(pairs))}

    def annotate(jobs):
        out = tmp_path / f"jobs{jobs}.conllu"
        assert main(["annotate", str(corpus), "--backend", "http", "--url", loopback.url,
                     "--model", "m", "--jobs", str(jobs), "-o", str(out)]) == 0
        return out.read_bytes()

    serial = annotate(1)
    loopback.requests = 0
    loopback.gate = threading.Barrier(2, timeout=5)
    assert annotate(4) == serial
    assert not loopback.gate.broken


@pytest.mark.parametrize("script, attempts, annotated, waited", [
    ([(500, {}, b"{}"), (200, {}, b"{not json")], 3, True, []),
    ([(503, {}, b"{}")], 2, True, []),
    ([(429, {"Retry-After": "1"}, b"{}")], 2, True, [1.0]),
    ([(400, {}, b"{}")], 1, False, []),
], ids=["500-then-malformed", "503", "429-retry-after", "400"])
def test_failures_retried_by_class(loopback, sister_doc, sleeps, script, attempts,
                                   annotated, waited):
    cfg = PipelineConfig(retries=2)
    [pair] = export_training_pairs(sister_doc, cfg)
    loopback.gold = {pair.prompt: pair.completion}
    loopback.script = script
    backend = HttpBackend(loopback.url, "m")
    try:
        _, [report] = annotate_document(sister_doc, backend, cfg)
    finally:
        backend.close()
    assert (report.attempts, report.annotated, sleeps) == (attempts, annotated, waited)
    assert loopback.requests == attempts


@pytest.mark.parametrize("status, retry_after, error, wait", [
    (408, None, BackendError, None),
    (429, "7", BackendError, 7.0),
    (429, None, BackendError, None),
    (500, "7", BackendError, None),
    (503, "3600", BackendError, pipeline.RETRY_AFTER_CAP_S),
    (503, "Wed, 21 Oct 2026 07:28:00 GMT", BackendError, None),
    (400, None, PermanentBackendError, None),
    (401, None, PermanentBackendError, None),
    (404, None, PermanentBackendError, None),
    (422, None, PermanentBackendError, None),
])
def test_http_status_classes(loopback, status, retry_after, error, wait):
    headers = {"Retry-After": retry_after} if retry_after else {}
    loopback.script = [(status, headers, b"{}")]
    backend = HttpBackend(loopback.url, "m")
    try:
        with pytest.raises(BackendError, match=f"HTTP {status}") as caught:
            backend.generate("p")
    finally:
        backend.close()
    assert type(caught.value) is error
    assert caught.value.retry_after == wait


def test_connection_refused_is_transient():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    backend = HttpBackend(f"http://127.0.0.1:{port}/v1/completions", "m", timeout=5)
    try:
        with pytest.raises(BackendError) as caught:
            backend.generate("p")
    finally:
        backend.close()
    assert type(caught.value) is BackendError
