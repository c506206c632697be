"""Shared fixtures: the worked single-sentence document and its renderings,
and an in-process loopback completions server for ``HttpBackend``.

The sentence exercises every construct at once — a nested mention pair, a
pronoun inside the outer span, and a zero subject realized as an empty node
after "brings" — so most format and round-trip tests start from it.
"""
import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

import pytest
from hypothesis import settings

from corefkit.conllu import Chain, Document, Mention, Sentence, Token
from corefkit.pipeline import TrainingPair, _read_jsonl

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


# one rendering per format, frozen byte-for-byte
GOLDEN = {
    "crac": "When Lison|[e1] visits her|[e1],[e2 sister|e2] ,"
            " brings ##|[e1] flowers.",
    "explicit": "When <ent id=COREF_1> Lison </ent> visits <ent id=COREF_2>"
                " <ent id=COREF_1> her </ent> sister </ent> ,"
                " brings <zero_ent id=COREF_1> flowers.",
    "minimal": "When <ent1> Lison </ent> visits <ent2> <ent1> her </ent>"
               " sister </ent> , brings <zero1> flowers.",
    "headword": "When Lison <ent1> visits her <ent1> sister <ent2> ,"
                " brings <zero1> flowers.",
}

SISTER_CONLLU = """\
# newdoc id = demo
# sent_id = s1
1\tWhen\t_\t_\t_\t_\t3\t_\t_\t_
2\tLison\t_\t_\t_\t_\t3\t_\t_\tEntity=(e1-1)
3\tvisits\t_\t_\t_\t_\t0\t_\t_\t_
4\ther\t_\t_\t_\t_\t5\t_\t_\tEntity=(e2-2(e1-1)
5\tsister\t_\t_\t_\t_\t3\t_\t_\tEntity=e2)
6\t,\t_\t_\t_\t_\t7\t_\t_\t_
7\tbrings\t_\t_\t_\t_\t3\t_\t_\t_
7.1\t_\t_\t_\t_\t_\t_\t_\t7:nsubj\tEntity=(e1)
8\tflowers.\t_\t_\t_\t_\t7\t_\t_\t_

"""


def make_sister_doc() -> Document:
    """chains: e1 = {Lison, her, zero after "brings"}, e2 = {her sister}."""
    words = [("When", 3), ("Lison", 3), ("visits", 0), ("her", 5),
             ("sister", 3), (",", 7), ("brings", 3), ("flowers.", 7)]
    sent = Sentence("s1", [Token(i + 1, form, head)
                           for i, (form, head) in enumerate(words)])
    sent.empty_nodes.append(Token(7, "_", 0, True, 1, deps="7:nsubj"))
    doc = Document("demo", [sent])
    doc.chains["e1"] = Chain("e1", [
        Mention("e1", 0, ((2, 2),), (2, 0)),
        Mention("e1", 0, ((4, 4),), (4, 0)),
        Mention("e1", 0, (), (7, 1), is_zero=True),
    ])
    doc.chains["e2"] = Chain("e2", [Mention("e2", 0, ((4, 5),), (5, 0))])
    return doc


SISTER_IDMAP = {"e1": 1, "e2": 2}


@pytest.fixture
def sister_doc() -> Document:
    return make_sister_doc()


class Seen(NamedTuple):
    method: str
    target: str  # the path, or an absolute URI or host:port as a proxy gets it
    headers: dict
    payload: dict | None  # the JSON body of a POST
    client: tuple[str, int]  # the address of the client's end of the connection


class Loopback(ThreadingHTTPServer):
    """Answers each prompt with its gold completion (404 when it has none),
    over HTTP/1.1 connections kept alive unless a reply closes them.

    ``script`` holds (status, headers, body) replies served first, one per
    request. When ``gate`` is set, the first two requests wait on it, so they
    are answered only if both are in flight at once. When ``stall`` is set,
    each request waits for it and is then dropped unanswered. When ``drop``
    is set, each connection is closed after its first reply, which does not
    say so. A ``CONNECT``, as a proxy would get it, is answered 502. ``seen``
    holds each request as a :class:`Seen`.
    """

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.gold: dict[str, str] = {}
        self.script: list[tuple[int, dict, bytes]] = []
        self.gate: threading.Barrier | None = None
        self.stall: threading.Event | None = None
        self.drop = False
        self.calls = 0
        self.seen: list[Seen] = []
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
        if self.server.drop:
            self.close_connection = True

    def _see(self, payload: dict | None = None) -> None:
        self.server.seen.append(Seen(self.command, self.path, dict(self.headers), payload,
                                     self.client_address))

    def do_GET(self):
        with self.server.lock:
            self._see()
        self._reply(405, {}, b'{"error": "POST only"}')

    def do_CONNECT(self):
        with self.server.lock:
            self._see()
        self._reply(502, {}, b'{"error": "no tunnel"}')

    def do_POST(self):
        server = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.calls += 1
            self._see(payload)
            held = server.gate is not None and server.calls <= 2
            scripted = server.script.pop(0) if server.script else None
        if server.stall is not None:
            server.stall.wait(timeout=5)
            return
        if held:
            try:
                server.gate.wait()
            except threading.BrokenBarrierError:
                return self._reply(400, {}, b'{"error": "requests ran one at a time"}')
        if scripted:
            return self._reply(*scripted)
        if payload["prompt"] not in server.gold:
            return self._reply(404, {}, b'{"error": "unknown prompt"}')
        body = {"choices": [{"text": server.gold[payload["prompt"]], "index": 0}]}
        self._reply(200, {}, json.dumps(body).encode())


@contextmanager
def serving():
    """A :class:`Loopback` answering on a thread until the block ends."""
    server = Loopback()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def loopback():
    with serving() as server:
        yield server


def read_pairs(path) -> list[TrainingPair]:
    """Every training pair of a JSONL file, read as ``OracleBackend`` reads
    its records."""
    return [pair for _, _, pair in _read_jsonl(str(path))]
