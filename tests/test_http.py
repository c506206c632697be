"""HttpBackend against an in-process loopback completions server (see
``conftest.Loopback``): requests in flight at once under ``--jobs``, which
failures are retried, timeouts and redirects."""
import socket
import threading

import pytest

from corefkit import pipeline
from corefkit.cli import main
from corefkit.conllu import serialize_corpus
from corefkit.pipeline import (BackendError, HttpBackend, PermanentBackendError,
                               PipelineConfig, annotate_document,
                               export_training_pairs)
from corefkit.synth import SynthConfig, random_corpus

from conftest import read_pairs, serving


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
    loopback.gold = {p.prompt: p.completion for p in read_pairs(pairs)}

    def annotate(jobs):
        out = tmp_path / f"jobs{jobs}.conllu"
        assert main(["annotate", str(corpus), "--backend", "http", "--url", loopback.url,
                     "--model", "m", "--jobs", str(jobs), "-o", str(out)]) == 0
        return out.read_bytes()

    serial = annotate(1)
    loopback.calls = 0
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
    _, [report] = annotate_document(sister_doc, HttpBackend(loopback.url, "m"), cfg)
    assert (report.attempts, report.annotated, sleeps) == (attempts, annotated, waited)
    assert loopback.calls == attempts


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
    with pytest.raises(BackendError, match=f"HTTP {status}") as caught:
        HttpBackend(loopback.url, "m").generate("p")
    assert type(caught.value) is error
    assert caught.value.retry_after == wait


def test_connection_refused_is_transient():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    backend = HttpBackend(f"http://127.0.0.1:{port}/v1/completions", "m", timeout=5)
    with pytest.raises(BackendError) as caught:
        backend.generate("p")
    assert type(caught.value) is BackendError


def test_reply_slower_than_timeout_is_transient(loopback):
    loopback.stall = threading.Event()
    try:
        with pytest.raises(BackendError, match="timed out") as caught:
            HttpBackend(loopback.url, "m", timeout=0.2).generate("p")
    finally:
        loopback.stall.set()
    assert type(caught.value) is BackendError
    assert loopback.calls == 1


@pytest.mark.parametrize("status, error, followed", [
    (302, "HTTP 405", True),  # followed as a GET, which the endpoint refuses
    (307, "HTTP 307", False),  # urllib does not re-send a POST
])
def test_token_does_not_follow_a_redirect(loopback, monkeypatch, status, error, followed):
    monkeypatch.setenv("COREFKIT_API_TOKEN", "sekrit")
    with serving() as elsewhere:
        loopback.script = [(status, {"Location": elsewhere.url}, b"{}")]
        with pytest.raises(PermanentBackendError, match=error):
            HttpBackend(loopback.url, "m").generate("p")
    [(_, headers, _)] = loopback.seen
    assert headers["Authorization"] == "Bearer sekrit"
    assert [m for m, _, _ in elsewhere.seen] == (["GET"] if followed else [])
    assert all("Authorization" not in h for _, h, _ in elsewhere.seen)
