"""One workload, measured in-process through ``corefkit.cli.main``.

    python3 perfbench/measure.py --workload NAME --inputs DIR --work DIR \
        --seconds S --trace 0|1 [--url URL]

Runs cycles of ``export-train``, ``annotate`` and ``evaluate`` on the files
``gen.py`` wrote until the time is up, checks every output, and prints one
JSON object as its last line: the raw end-to-end figures (``--trace 0``) or
the per-layer figures (``--trace 1``). With ``--trace 1`` the first third of
the time runs untraced, so the tracing overhead can be reported.

Every command starts on a freshly collected heap, so the garbage of earlier
commands and the collector's counters do not carry over. While a command
runs in this thread, ``calib.Sampler`` times a short loop every 20 ms; the
command's time is kept as its own time (the sampling taken out) with its
machine-speed scale. ``annotate`` on the http workload, whose work runs in
worker threads and mostly waits on the endpoint, is not sampled.

The only hooks are a wrapper around the backend that ``cli.build_backend``
returns (completion times per window, in-flight calls, failures) and one
around ``pipeline.annotate_document`` (each document's start); both are
installed by rebinding names, nothing under ``src/`` changes.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import threading
import urllib.request
from pathlib import Path
from time import perf_counter

from calib import Sampler, Unsampled
from spec import WORKLOADS, Workload
from tracing import Tracer, rebind

from corefkit import cli, pipeline
from corefkit.pipeline import BackendError

REPEAT_MIN_S = 1.0


class BackendProbe:
    """Delegates to the real backend and times each ``generate`` call."""

    def __init__(self, inner, generate):
        self._inner = inner
        self._generate = generate
        self._lock = threading.Lock()
        self.inflight = 0
        self.max_inflight = 0
        self.calls = 0
        self.failures = 0
        self.busy_s = 0.0
        self.durations: list[float] = []
        self.done: dict[tuple[str, int], float] = {}
        self.refs: set[tuple[str, int]] = set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def generate(self, prompt, ref=None):
        with self._lock:
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
            self.calls += 1
            self.refs.add(ref)
        start = perf_counter()
        try:
            completion = self._generate(prompt, ref)
        except BackendError:
            with self._lock:
                self.failures += 1
            raise
        finally:
            took = perf_counter() - start
            with self._lock:
                self.inflight -= 1
                self.busy_s += took
                self.durations.append(took)
        self.done[ref] = perf_counter()
        return completion


class Hooks:
    """Installs the probe; collects one annotate pass at a time."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.probe: BackendProbe | None = None
        self.build = (0.0, 0.0)
        self.doc_start: dict[str, float] = {}
        build_backend = cli.build_backend
        annotate_document = pipeline.annotate_document

        def probed_build_backend(job):
            start = perf_counter()
            backend = build_backend(job)
            self.build = (start, perf_counter())
            self.probe = BackendProbe(backend, tracer.span(
                "backend.generate", backend.generate))
            return self.probe

        def timed_annotate_document(doc, *args, **kwargs):
            self.doc_start[doc.doc_id] = perf_counter()
            return annotate_document(doc, *args, **kwargs)

        rebind(cli, "build_backend", probed_build_backend)
        rebind(pipeline, "annotate_document", timed_annotate_document)

    def window_gaps(self, scaled) -> dict[tuple[str, int], float]:
        """Per window: ``scaled`` time from the previous completion of the
        same document (or from the document's start) to this one's."""
        by_doc: dict[str, list[tuple[int, float]]] = {}
        for (doc_id, w_index), t in self.probe.done.items():
            by_doc.setdefault(doc_id, []).append((w_index, t))
        gaps = {}
        for doc_id, marks in by_doc.items():
            prev = self.doc_start[doc_id]
            for w_index, t in sorted(marks):
                gaps[(doc_id, w_index)] = scaled(prev, t)
                prev = t
        return gaps


def _post(url: str) -> dict:
    with urllib.request.urlopen(urllib.request.Request(url, data=b"{}"),
                                timeout=10) as resp:
        return json.loads(resp.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def _forms(text: str) -> list[tuple[str, list[str]]]:
    """(doc id, surface forms) per document, read straight from CoNLL-U."""
    docs: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        if line.startswith("# newdoc id = "):
            docs.append((line[len("# newdoc id = "):], []))
        elif line and not line.startswith("#"):
            cols = line.split("\t")
            if cols[0].isdigit():
                docs[-1][1].append(cols[1])
    return docs


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    def __init__(self, w: Workload, inputs: Path, work: Path, url: str | None,
                 tracer: Tracer):
        self.w = w
        self.inputs = inputs
        self.work = work
        self.url = url
        self.info = json.loads((inputs / "inputs.json").read_text())
        self.tracer = tracer
        self.hooks = Hooks(tracer)
        self.failures: list[str] = []
        self.cycles: list[dict] = []
        self.pred_digest: str | None = None
        self.f1: float | None = None
        self.gold_digest = _digest(inputs / "gold_pairs.jsonl")
        self.corpus = str(inputs / "corpus.conllu")
        self.pairs_out = str(work / "pairs.jsonl")
        self.pred = work / "pred.conllu"
        self.sampler: Sampler | Unsampled = Unsampled()

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.failures:
            self.failures.append(message)
            print(f"CHECK FAILED [{self.w.name}]: {message}", file=sys.stderr)

    def annotate_argv(self, backend: str, out: str) -> list[str]:
        argv = ["annotate", self.corpus, "--preset", self.w.preset,
                "--format", self.w.fmt, "--backend", backend,
                "--jobs", str(self.w.jobs), "-o", out]
        if backend == "oracle":
            source = (self.pairs_out if self.w.backend == "oracle"
                      else str(self.inputs / "gold_pairs.jsonl"))
            argv += ["--oracle", source]
        elif backend == "replay":
            argv += ["--replay", str(self.inputs / "replay.jsonl")]
        else:
            argv += ["--url", f"{self.url}/v1/completions", "--model", "loopback"]
        return argv

    def command(self, name: str, argv: list[str],
                sampled: bool = True) -> tuple[float, float]:
        """Own seconds of ``cli.main(argv)``, run on a freshly collected
        heap, and its machine-speed scale; unsampled, wall seconds and 1."""
        gc.collect()
        self.sampler = Sampler() if sampled else Unsampled()
        with self.sampler:
            start = perf_counter()
            code = self.tracer.span(f"cli.{name}", cli.main)(argv)
            end = perf_counter()
        self.check(code == 0, f"{name} exited with {code}")
        return self.sampler.own(start, end), self.sampler.scale(start, end)

    def repeated(self, name: str, argv: list[str], traced: bool) -> list:
        """(seconds, scale) of ``argv``: run once in a traced cycle, else
        repeated until REPEAT_MIN_S have passed, because one pass is short
        on the small corpora."""
        runs = [self.command(name, argv)]
        while not traced and sum(t for t, _ in runs) < REPEAT_MIN_S:
            runs.append(self.command(name, argv))
        return runs

    def cycle(self, index: int, traced: bool) -> dict:
        self.tracer.cycle = index if traced else None
        export_runs = self.repeated("export-train", [
            "export-train", self.corpus, "--preset", self.w.preset,
            "--format", self.w.fmt, "-o", self.pairs_out], traced)
        if self.url:
            _post(f"{self.url}/reset")
        self.hooks.doc_start.clear()
        annotate_s, annotate_scale = self.command(
            "annotate", self.annotate_argv(self.w.backend, str(self.pred)),
            sampled=not self.w.waits_on_backend)
        sampler, build = self.sampler, self.hooks.build

        def scaled(start: float, end: float) -> float:
            return sampler.own(start, end) * sampler.scale(start, end)

        evaluate_runs = self.repeated("evaluate", [
            "evaluate", "--gold", self.corpus, "--pred", str(self.pred),
            "-o", str(self.work / "score.json")], traced)
        self.tracer.cycle = None

        probe = self.hooks.probe
        c = {"index": index, "traced": traced, "export_runs": export_runs,
             "commands_s": sum(t * k for t, k in (
                 export_runs[0], (annotate_s, annotate_scale), evaluate_runs[0])),
             "annotate_s": annotate_s - sampler.own(*build),
             "annotate_scale": annotate_scale,
             "evaluate_runs": evaluate_runs,
             "build_s": scaled(*build),
             "windows": len(probe.refs), "annotated": len(probe.done),
             "calls": probe.calls, "failures": probe.failures,
             "max_inflight": probe.max_inflight, "busy_s": probe.busy_s,
             "durations": probe.durations, "gaps": self.hooks.window_gaps(scaled)}
        self.verify(c)
        return c

    def verify(self, c: dict) -> None:
        w = self.w
        self.check(_digest(Path(self.pairs_out)) == self.gold_digest,
                   "export-train output differs from the gold pairs")
        self.check(c["windows"] == self.info["windows"],
                   f"{c['windows']} windows attempted, {self.info['windows']} expected")
        self.check(c["annotated"] == c["windows"],
                   f"{c['windows'] - c['annotated']} windows left unannotated")
        f1 = json.loads((self.work / "score.json").read_text())["macro_average"]
        self.check(self.f1 is None or f1 == self.f1,
                   f"conll_f1 changed between cycles ({self.f1} then {f1})")
        self.f1 = f1 if self.f1 is None else self.f1
        digest = _digest(self.pred)
        if self.pred_digest is None:
            self.pred_digest = digest
            gold = _forms(Path(self.corpus).read_text(encoding="utf-8"))
            self.check(_forms(self.pred.read_text(encoding="utf-8")) == gold,
                       "predicted token forms differ from the input's")
        self.check(digest == self.pred_digest, "predictions changed between cycles")
        if w.backend == "http":
            stats = _get(f"{self.url}/stats")
            self.check(stats["404"] == 0,
                       f"endpoint answered 404 to {stats['404']} prompts")
            self.check(stats["503"] == stats["scheduled"] == c["failures"],
                       f"{stats['503']} 503s served, {stats['scheduled']} "
                       f"scheduled, {c['failures']} failed calls seen")
        else:
            self.check(c["failures"] == 0,
                       f"{c['failures']} backend calls refused")

    def finish(self) -> None:
        """Checks made once, after the timed cycles."""
        if self.w.backend == "http":
            out = self.work / "pred_oracle.conllu"
            code = cli.main(self.annotate_argv("oracle", str(out)))
            self.check(code == 0, f"in-memory oracle annotate exited with {code}")
            self.check(_digest(out) == self.pred_digest,
                       "http predictions differ from the in-memory oracle's")

    def phase(self, seconds: float, traced: bool) -> list[dict]:
        """Cycles until ``seconds`` have passed (at least one); a cycle is
        not started when less than half of one would fit."""
        out: list[dict] = []
        deadline = perf_counter() + seconds
        while True:
            start = perf_counter()
            out.append(self.cycle(len(self.cycles) + len(out), traced))
            if perf_counter() + (perf_counter() - start) / 2 > deadline:
                return out


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, cycles: list[dict]) -> dict:
    """Each timing is the median over the run's repetitions of the
    repetition's own time times its machine-speed scale (``calib.py``). On
    ``http-loopback`` the annotate and window times are waits on the
    endpoint, so they are neither sampled nor scaled. Each window's time
    is scaled by the speed sampled in and just around it, and the window
    percentiles are taken over the windows' median times across cycles,
    so the tail holds the windows that cost most, not the ones a slow
    spell hit."""
    info = run.info
    per_rep = {"build_backend_s": [], "export_pairs_per_s": [],
               "annotate_windows_per_s": [], "evaluate_docs_per_s": []}
    gaps: dict[tuple[str, int], list[float]] = {}
    for c in cycles:
        per_rep["export_pairs_per_s"].extend(info["windows"] / (t * k)
                                             for t, k in c["export_runs"])
        per_rep["evaluate_docs_per_s"].extend(info["docs"] / (t * k)
                                              for t, k in c["evaluate_runs"])
        per_rep["build_backend_s"].append(c["build_s"])
        per_rep["annotate_windows_per_s"].append(
            c["windows"] / (c["annotate_s"] * c["annotate_scale"]))
        for ref, gap in c["gaps"].items():
            gaps.setdefault(ref, []).append(gap)
    cuts = statistics.quantiles(map(statistics.median, gaps.values()),
                                n=100, method="inclusive")
    windows = sum(c["windows"] for c in cycles)
    out = {k: statistics.median(v) for k, v in per_rep.items()}
    out.update({
        "window_p50_ms": 1000 * cuts[49],
        "window_p95_ms": 1000 * cuts[94],
        "annotated_window_share": sum(c["annotated"] for c in cycles) / windows,
        "attempts_per_window": sum(c["calls"] for c in cycles) / windows,
        "conll_f1": run.f1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cycles": len(cycles),
        "timings": [{k: c[k] for k in ("export_runs", "annotate_s",
                                        "annotate_scale", "evaluate_runs")}
                    for c in cycles],
        "per_rep": per_rep,
    })
    return out


def per_layer(run: Run, cycles: list[dict], plain: list[dict]) -> dict:
    tr = run.tracer
    ids = [c["index"] for c in cycles]
    self_s, calls = tr.self_times(), tr.calls()
    total_s: dict[tuple[int, str], float] = {}
    under_annotate: dict[tuple[int, str], float] = {}
    for (i, root, name), t in tr.total_times().items():
        total_s[(i, name)] = total_s.get((i, name), 0.0) + t
        if root == "cli.annotate":
            under_annotate[(i, name)] = t

    def med(table, name):
        return _median(table.get((i, name), 0) for i in ids)

    out: dict[str, float] = {}
    for name in ("conllu.parse_conllu", "conllu.serialize_conllu",
                 "pipeline.truncate_context", "pipeline.slice_annotated",
                 "formats.render", "formats.decode", "reindex.localize",
                 "align.clean", "metrics.score", "backend.generate"):
        out[f"{name}.self_s"] = med(self_s, name)
        out[f"{name}.calls"] = med(calls, name)
    for name in ("pipeline.build_prompt", "formats.build_events",
                 "formats.events_to_mentions", "reindex.globalize",
                 "align.align_tokens", "metrics.ceaf_e", "metrics.conll_f1"):
        out[f"{name}.self_s"] = med(self_s, name)
    out["pipeline.truncate_context.total_s"] = med(total_s, "pipeline.truncate_context")
    out["pipeline.truncate_context.annotate_share"] = _median(
        under_annotate.get((i, "pipeline.truncate_context"), 0.0)
        / under_annotate[(i, "cli.annotate")] for i in ids)
    for cmd in ("export-train", "annotate", "evaluate"):
        out[f"cli.{cmd}.wall_s"] = med(total_s, f"cli.{cmd}")

    def ratio(num, den):
        return _median(tr.counts.get((i, num), 0) / tr.counts[(i, den)]
                       if tr.counts.get((i, den)) else 0.0 for i in ids)

    out["pipeline.context_words"] = _median(
        tr.counts.get((i, "pipeline.context_words"), 0) / calls[(i, "pipeline.build_prompt")]
        if calls.get((i, "pipeline.build_prompt")) else 0.0 for i in ids)
    out["align.edit_similarity.calls"] = med(tr.counts, "align.edit_similarity.calls")
    out["align.edit_similarity.off_target_share"] = ratio(
        "align.edit_similarity.off_target", "align.edit_similarity.calls")
    for kind in ("anchor", "expanded", "fuzzy"):
        out[f"align.pairs.{kind}"] = med(tr.counts, f"align.pairs.{kind}")
    out["align.fuzzy_hit_ratio"] = ratio("align.pairs.fuzzy", "align.edit_similarity.calls")
    out["align.tags_dropped"] = med(tr.counts, "align.tags_dropped")

    out["backend.failures"] = _median(c["failures"] for c in cycles)
    out["backend.max_inflight"] = max(c["max_inflight"] for c in cycles)
    out["backend.inflight_mean"] = _median(c["busy_s"] / c["annotate_s"] for c in cycles)
    out["backend.overhead_ms"] = 1000 * _median(
        d for c in cycles for d in c["durations"]) - run.w.latency_ms
    windows = sum(c["windows"] for c in cycles)
    out["failed_window_share"] = (windows - sum(c["annotated"] for c in cycles)) / windows
    out["trace.overhead_pct"] = 100 * (_median(c["commands_s"] for c in cycles)
                                       / _median(c["commands_s"] for c in plain) - 1)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--url", default=None)
    args = ap.parse_args()

    w = WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    inputs = Path(args.inputs)
    info = json.loads((inputs / "inputs.json").read_text())
    off_target = frozenset()
    if info["off_target_windows"]:
        wanted = {tuple(r) for r in info["off_target_windows"]}
        with open(inputs / "replay.jsonl", encoding="utf-8") as fh:
            off_target = frozenset(
                rec["completion"] for rec in map(json.loads, fh)
                if (rec["doc_id"], rec["window_index"]) in wanted)
    tracer = Tracer(off_target)
    run = Run(w, inputs, work, args.url, tracer)

    if args.trace:
        plain = run.phase(args.seconds / 3, traced=False)
        run.cycles.extend(plain)
        tracer.install()
        traced = run.phase(args.seconds * 2 / 3, traced=True)
        run.cycles.extend(traced)
        run.finish()
        metrics = per_layer(run, traced, plain)
        tracer.write(str(work / "trace.jsonl"))
    else:
        run.cycles = run.phase(args.seconds, traced=False)
        run.finish()
        metrics = end_to_end(run, run.cycles)
    windows = sum(c["windows"] for c in run.cycles)
    print(json.dumps({
        "correct": not run.failures, "failures": run.failures,
        "attempted": windows,
        "failed": windows - sum(c["annotated"] for c in run.cycles),
        "inputs": {k: v for k, v in info.items() if k != "off_target_windows"}
        | {"off_target_windows": len(info["off_target_windows"])},
        "metrics": metrics}))


if __name__ == "__main__":
    main()
