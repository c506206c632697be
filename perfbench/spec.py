"""The benchmark's workloads: what each one feeds the program.

Why each workload exists is written in BENCHMARK.json and README.md. Every
size here is fixed; only the content of the inputs comes from the seed, so
two seeds give inputs of the same shape.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str                  # oracle | replay | http
    preset: str
    fmt: str
    jobs: int                     # concurrent clients (closed loop)
    doc_sentences: tuple[int, ...] = ()   # fixed sentence count per document
    docs: int = 0                 # or: this many documents ...
    sentences: tuple[int, int] = (3, 12)  # ... of a random length in this range
    chains: tuple[int, int] = (2, 5)
    mentions_per_chain: tuple[int, int] = (1, 4)
    off_target_share: float = 0.0  # replay: completions sharing no input token
    latency_ms: float = 0.0        # http: injected per request
    fail_share: float = 0.0        # http: prompts answered 503 once per pass

    @property
    def waits_on_backend(self) -> bool:
        """annotate time is mostly spent waiting on a remote endpoint"""
        return self.backend == "http"


WORKLOADS = {w.name: w for w in (
    # both documents run past the 3,072-word context budget
    Workload(name="longdoc-oracle", backend="oracle", preset="large-infer",
             fmt="headword", jobs=1, doc_sentences=(400, 600),
             chains=(60, 60), mentions_per_chain=(4, 4)),
    Workload(name="noisy-replay", backend="replay", preset="small",
             fmt="minimal", jobs=1, docs=1000, off_target_share=0.02),
    # 8% of windows retry: more than 5%, so window_p95_ms lands among them
    # and shows the cost of the retry path
    Workload(name="http-loopback", backend="http", preset="small",
             fmt="headword", jobs=2, docs=80, latency_ms=20.0,
             fail_share=0.08),
)}
