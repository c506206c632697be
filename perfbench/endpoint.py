"""Loopback completions endpoint for the http workload.

    python3 perfbench/endpoint.py --pairs GOLD.jsonl --seed N \
        --latency-ms 20 --fail-share 0.05

Serves OpenAI-style ``POST /v1/completions`` on 127.0.0.1 and prints
``PORT <n>`` once it listens. Each request sleeps the fixed latency, then:

* answers 503 if the prompt is on the failure schedule and has not failed
  since the last reset: the ``round(fail_share * prompts)`` prompts with the
  lowest SHA-256 of ``seed`` and prompt, so the schedule depends only on the
  seed and the prompts;
* answers the gold completion of the exact prompt, or 404 when no gold
  pair has that prompt, which makes any train/inference skew show.

``POST /reset`` starts a new pass (every scheduled prompt fails once more)
and zeroes the counters; ``GET /stats`` returns them. Each response goes out
in one write on a TCP_NODELAY socket, so Nagle's algorithm and delayed ACKs
add no latency of their own. The process exits when its standard input
closes, so it never outlives the benchmark that started it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Completions:
    """The gold table, the 503 schedule and the per-pass counters."""

    def __init__(self, pairs_path: str, seed: int, fail_share: float):
        self.gold: dict[str, str] = {}
        with open(pairs_path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    self.gold[rec["prompt"]] = rec["completion"]
        ranked = sorted(self.gold, key=lambda p: hashlib.sha256(
            f"{seed}\0{p}".encode()).digest())
        self.scheduled = frozenset(ranked[:round(fail_share * len(ranked))])
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.failed: set[str] = set()
            self.counts = {"requests": 0, "ok": 0, "503": 0, "404": 0,
                           "scheduled": len(self.scheduled)}

    def answer(self, prompt: str) -> tuple[int, str | None]:
        with self.lock:
            self.counts["requests"] += 1
            if prompt in self.scheduled and prompt not in self.failed:
                self.failed.add(prompt)
                self.counts["503"] += 1
                return 503, None
            if prompt not in self.gold:
                self.counts["404"] += 1
                return 404, None
            self.counts["ok"] += 1
            return 200, self.gold[prompt]


def make_handler(table: Completions, latency_s: float):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, format, *args):
            pass

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode()
            head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode()
            self.wfile.write(head + body)

        def do_GET(self):
            if self.path == "/stats":
                with table.lock:
                    counts = dict(table.counts)
                self._reply(200, counts)
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                table.reset()
                self._reply(200, {"ok": True})
                return
            time.sleep(latency_s)
            try:
                prompt = json.loads(body)["prompt"]
            except (ValueError, KeyError, TypeError):
                self._reply(400, {"error": "bad request"})
                return
            status, text = table.answer(prompt)
            if status == 200:
                self._reply(200, {"choices": [{"text": text, "index": 0}]})
            else:
                self._reply(status, {"error": self.responses[status][0]})

    return Handler


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", required=True, help="gold pairs JSONL")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--latency-ms", type=float, required=True)
    ap.add_argument("--fail-share", type=float, required=True)
    args = ap.parse_args()

    table = Completions(args.pairs, args.seed, args.fail_share)
    server = ThreadingHTTPServer(("127.0.0.1", 0),
                                 make_handler(table, args.latency_ms / 1000.0))
    server.daemon_threads = True
    watcher = threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()),
                               daemon=True)
    watcher.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
