"""Iterative windowed annotation over documents.

A document is annotated in batches of sentences. Each window sees a prompt
holding (a) the tail of everything annotated so far, trimmed to a word
budget, with chain ids rewritten to small window-local indices, and (b) the
raw batch text. The model completion is cleaned back onto the batch tokens,
indices are mapped back to global chain ids (new indices mint new chains),
and the recovered mentions are merged into the prediction.

Annotation and training export share one window walker. Export feeds it
the gold annotation of each batch where annotation feeds it the cleaned
model output, so a model fine-tuned on exported pairs and an inference run
over the same corpus see byte-identical prompts. ``OracleBackend`` serves
recorded completions by window, exported pairs to close the loop in tests or
captured ones to replay; ``HttpBackend`` talks to an OpenAI-style
completions endpoint; ``EmptyBackend`` returns the batch unannotated.
"""
from __future__ import annotations

import json
import os
import threading
import time
import weakref
from bisect import bisect_left
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from urllib.parse import unquote, urlsplit, urlunsplit

from .align import clean
from .conllu import Corpus, Document, Mention, mentions_to_document
from .diag import Diagnostic
from .formats import (AnnotatedText, Format, Layout, _anchor, build_events, cut_at,
                      events_to_mentions, render)
from .reindex import IdAllocator, IdMap, globalize


@dataclass
class PipelineConfig:
    """Knobs for windowing, context and output handling."""

    fmt: Format = Format.HEADWORD
    sentences_per_batch: int = 4
    context_budget: int = 250        # max words of the prompt's previous context
    fuzzy_threshold: float = 0.5
    reindex: bool = True             # False: one id numbering per document
    retries: int = 2

    def __post_init__(self):
        self.fmt = Format(self.fmt)
        if self.sentences_per_batch < 1:
            raise ValueError("sentences_per_batch must be >= 1")
        if self.context_budget < 0:
            raise ValueError("context_budget must be >= 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


PRESETS = {
    "small": PipelineConfig(sentences_per_batch=4, context_budget=250),
    "large-train": PipelineConfig(sentences_per_batch=6, context_budget=1024),
    "large-infer": PipelineConfig(sentences_per_batch=6, context_budget=3072),
}

_TAG_HELP = {
    Format.CRAC: ("word|[eN] one-word mention, word|[eN opens, word|eN] closes",
                  "##|[eN] inserted after the anchor word"),
    Format.EXPLICIT: ("<ent id=COREF_N> ... </ent>", "<zero_ent id=COREF_N>"),
    Format.MINIMAL: ("<entN> ... </ent>", "<zeroN>"),
    Format.HEADWORD: ("<entN> after each mention head word",
                      "<zeroN> after the anchor word"),
}

PROMPT_TEMPLATE = """TASK: COREFERENCE ANNOTATION
Annotate mentions and zero anaphora. Do not modify the input text.

ALLOWED TAGS
- Entities: {entities}
- Zeros: {zeros}

PREVIOUS CONTEXT
{context}

INPUT TO ANNOTATE
{batch}

ANNOTATED OUTPUT
"""


def build_prompt(context: str, batch: str, fmt: Format) -> str:
    entities, zeros = _TAG_HELP[Format(fmt)]
    return PROMPT_TEMPLATE.format(entities=entities, zeros=zeros,
                                  context=context if context else "(none)",
                                  batch=batch)


def completion_of(prompt: str) -> str:
    """The raw batch text a prompt asks about (what EmptyBackend echoes)."""
    _, _, rest = prompt.partition("INPUT TO ANNOTATE\n")
    body, _, _ = rest.partition("\n\nANNOTATED OUTPUT")
    return body


# -- window geometry -----------------------------------------------------------

def iter_windows(n_sentences: int, per_batch: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + per_batch, n_sentences))
            for lo in range(0, n_sentences, per_batch)]


def slice_annotated(annotated: AnnotatedText, lo: int, hi: int) -> AnnotatedText:
    """Tokens [lo, hi) with their events, re-anchored to the slice.

    What the cut at ``lo`` keeps is :func:`~corefkit.formats.cut_at`'s rule,
    which ``Layout.fill`` shares; at ``hi`` a span that ends at or past it is
    dropped. At a sentence boundary nothing straddles. A cut between tokens,
    as ``Layout.cut`` makes, can fall inside a mention: its words stay in
    the slice untagged.
    """
    # anchors never decrease and breaks ascend, so hi is bisected as well
    events, breaks = annotated.events, annotated.breaks
    first, first_break = cut_at(annotated, lo)
    last = bisect_left(events, hi, first, key=_anchor)
    kept = [ev for ev in events[first:last] if ev.end is None or ev.end < hi]
    return AnnotatedText(
        list(annotated.tokens[lo:hi]),
        # events are frozen, so one that keeps its anchor is shared
        [ev.shifted(-lo) for ev in kept] if lo else kept,
        annotated.fmt,
        tuple(b - lo for b in breaks[first_break:bisect_left(breaks, hi)]),
    )


def truncate_context(annotated: AnnotatedText, budget: int) -> AnnotatedText:
    """Largest whole-token suffix whose prompt context is at most ``budget``
    words.

    "Words" are whitespace-separated atoms of the suffix as the prompt
    shows it, localized to display chain indices, so inline tags count
    against the budget (two atoms each in the verbose XML form). The cut is
    ``Layout.cut``'s, of ``annotated`` laid out as one piece; it renders
    nothing. The window walker's ``Layout`` fills this suffix in itself.
    """
    layout = Layout(annotated.fmt)
    layout.extend(annotated)
    return slice_annotated(annotated, layout.cut(budget), len(annotated.tokens))


# -- model backends --------------------------------------------------------------

class BackendError(RuntimeError):
    """The backend could not produce a completion for this prompt; another
    attempt may. ``retry_after`` is the wait in seconds the backend asked for
    before that attempt, or None."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class PermanentBackendError(BackendError):
    """The same prompt would fail again, so the window is not retried."""


RETRY_AFTER_CAP_S = 60.0
_sleep = time.sleep  # the wait before a retry; tests replace it


class ModelBackend:
    """Interface: ``generate(prompt, ref)`` returns the completion text.

    ``ref`` identifies the window as (doc_id, window_index); offline
    backends key on it, live ones may ignore it. ``generate`` must be
    thread-safe: with ``jobs > 1`` the pool calls it from several threads at
    once. It is the only side-effecting call the pipeline makes, and a
    backend holds nothing that outlives it.
    """

    def generate(self, prompt: str, ref: tuple[str, int] | None = None) -> str:
        raise NotImplementedError


class EmptyBackend(ModelBackend):
    """Returns the batch text untouched — the no-mentions baseline."""

    def generate(self, prompt, ref=None):
        return completion_of(prompt)


class OracleBackend(ModelBackend):
    """Serves recorded completions, one :class:`TrainingPair` per window
    ``(doc_id, window_index)``. Exported pairs (``--oracle``) keep their
    prompts, and a window asked with another prompt is refused, so any
    train/inference skew in windowing, context trimming or id rewriting fails
    loudly. ``replay`` records (``--replay``) are served as they are.
    ``pairs`` is a list, its records counted from 1 as :func:`write_pairs`
    writes them, or the path of a JSONL file of them (see
    :func:`_read_jsonl`); a second record for a window raises ValueError
    naming both lines. From a file the table keeps each record's offset, not
    the record, and reads the record again when its window is asked for, so
    it stays small however large the file is."""

    def __init__(self, pairs, replay: bool = False):
        self.replay = replay
        self.path = pairs if isinstance(pairs, str) else None
        records = (lambda: _read_jsonl(pairs, prompts=not replay)) if self.path else (
            lambda: ((line, pair, pair) for line, pair in enumerate(pairs, 1)))
        # keyed by repr((doc_id, window_index)): one short string per window
        # costs less memory than a tuple and its parts
        self.by_ref: dict[str, TrainingPair | int] = {}
        for line, kept, pair in records():
            ref = repr((pair.doc_id, pair.window_index))
            if ref in self.by_ref:
                first = next(n for n, _, p in records()
                             if repr((p.doc_id, p.window_index)) == ref)
                raise ValueError(f"record on line {line}: window {ref} is already "
                                 f"recorded on line {first}")
            self.by_ref[ref] = kept
        if self.path is not None:
            self.fd = os.open(self.path, os.O_RDONLY)
            weakref.finalize(self, os.close, self.fd)

    def generate(self, prompt, ref=None):
        pair = self.by_ref.get(repr(ref))
        if pair is None:
            kind = "replayed" if self.replay else "oracle"
            raise PermanentBackendError(f"no {kind} completion for window {ref!r}")
        if self.path is not None:  # the record's offset: read it again
            line, size = b"", 4096
            while b"\n" not in line and (more := os.pread(self.fd, size, pair + len(line))):
                line, size = line + more, size * 2
            rec = json.loads(line.partition(b"\n")[0].partition(b"\r")[0])
            pair = TrainingPair(*ref, rec.get("prompt"), rec["completion"])
        if not self.replay and pair.prompt != prompt:
            raise PermanentBackendError(
                f"prompt for window {ref!r} does not match the exported one")
        return pair.completion


def _retry_after(value: str | None) -> float | None:
    """A ``Retry-After`` header given in seconds, capped; None for an
    HTTP date or anything else."""
    value = (value or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), RETRY_AFTER_CAP_S)


class HttpBackend(ModelBackend):
    """OpenAI-style completions endpoint. The bearer token is read from the
    environment (never from config files or flags), and no redirect is
    followed.

    Each calling thread keeps one HTTP/1.1 connection of its own, reused for
    every request it makes, so ``generate`` is thread-safe: no connection is
    shared. One the server dropped while idle is reopened and the request
    sent once more. Connections are closed when the backend is collected.
    A 408, 429, 5xx, timeout, connection error or malformed response is
    transient; any other status, a 3xx included, is permanent. A URL whose
    scheme is not http or https raises ValueError. ``HTTP_PROXY``,
    ``HTTPS_PROXY`` and ``NO_PROXY`` are read for each new connection.
    """

    def __init__(self, url: str, model: str, max_tokens: int = 2048,
                 timeout: float = 120.0, token_env: str = "COREFKIT_API_TOKEN"):
        parts = urlsplit(url)  # file:// and the like would be read as completions
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"url {url!r} is not an http:// or https:// URL")
        self.url = url
        self.model = model
        self.max_tokens = max_tokens
        self.timeout = timeout
        self.token_env = token_env
        # by thread id: (connection, request target, proxy headers)
        self.conns: dict[int, tuple] = {}
        weakref.finalize(self, lambda conns: [c.close() for c, _, _ in list(conns.values())],
                         self.conns)

    def _connect(self) -> tuple:
        """A new connection to the endpoint, or to the proxy the environment
        names for its scheme, as urllib's ``ProxyHandler`` picks it: an http
        URL is then asked for by absolute URI, an https one through a
        ``CONNECT`` tunnel."""
        import http.client
        import urllib.request
        parts = urlsplit(self.url)
        host = parts.netloc.rpartition("@")[2]
        target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        kind = (http.client.HTTPSConnection if parts.scheme == "https"
                else http.client.HTTPConnection)
        proxy = urllib.request.getproxies().get(parts.scheme)
        if not proxy or urllib.request.proxy_bypass(host):
            return kind(host, timeout=self.timeout), target, {}
        via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        headers = {}
        if via.username is not None:
            import base64
            creds = f"{unquote(via.username)}:{unquote(via.password or '')}"
            headers["Proxy-Authorization"] = f"Basic {base64.b64encode(creds.encode()).decode()}"
        conn = kind(via.netloc.rpartition("@")[2], timeout=self.timeout)
        if parts.scheme == "http":
            return conn, self.url, headers
        conn.set_tunnel(host, headers=headers)
        return conn, target, {}

    def generate(self, prompt, ref=None):
        import http.client  # deferred: most runs never talk to an endpoint
        data = json.dumps({"model": self.model, "prompt": prompt,
                           "max_tokens": self.max_tokens, "temperature": 0}).encode()
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        key = threading.get_ident()
        try:
            if key not in self.conns:
                self.conns[key] = self._connect()
            conn, target, extra = self.conns[key]
            for reused in (conn.sock is not None, False):
                try:
                    conn.request("POST", target, data, headers | extra)
                    resp = conn.getresponse()
                    break
                except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is one
                    conn.close()  # dropped while idle, so no byte came back: open a new one
                    if not reused:
                        raise
            body = resp.read()  # to the end, so the connection can take the next request
        except (OSError, http.client.HTTPException) as exc:
            if key in self.conns:
                self.conns.pop(key)[0].close()
            raise BackendError(f"completion request failed: {exc}") from exc
        status = resp.status
        if not 200 <= status < 300:
            message = f"completion request failed: HTTP {status} from {self.url}"
            if status < 500 and status not in (408, 429):
                raise PermanentBackendError(message)
            raise BackendError(message, _retry_after(resp.getheader("Retry-After"))
                               if status in (429, 503) else None)
        try:
            text = json.loads(body)["choices"][0]["text"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed completion response: {exc!r}") from exc
        if not isinstance(text, str):
            raise BackendError(f"completion text is not a string: {text!r}")
        return text


# -- annotation loop -------------------------------------------------------------

@dataclass
class WindowReport:
    window_index: int
    sent_range: tuple[int, int]
    attempts: int = 0
    annotated: bool = False
    n_mentions: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)


def _walk_windows(doc: Document, cfg: PipelineConfig, take) -> None:
    """The one loop over a document's windows, shared by annotation and
    training export so both build the same prompts.

    Each window's prompt holds the context, the annotation accumulated so
    far trimmed to the budget and localized, plus ``text``, the raw batch of
    sentences [lo, hi) rendered. The accumulator is a
    :class:`~corefkit.formats.Layout`, whose ``cut`` and ``fill`` give the
    context, numbering chains through ``idmap.assign``: ``idmap`` is a
    fresh :class:`IdMap` or, under ``reindex=False``, the document's own.
    ``take(w_index, lo, hi, text, prompt, idmap)`` handles the window and
    returns its events, with global chain ids and anchored to the batch;
    they become context for the windows after it.
    """
    layout = Layout(cfg.fmt)
    doc_map = IdMap() if not cfg.reindex else None
    windows = iter_windows(len(doc.sentences), cfg.sentences_per_batch)
    starts = doc.sentence_starts()
    for w_index, (lo, hi) in enumerate(windows):
        batch = AnnotatedText([t.form for s in doc.sentences[lo:hi] for t in s.tokens], [],
                              cfg.fmt, tuple(b - starts[lo] for b in starts[lo + 1:hi]))
        idmap = doc_map if doc_map is not None else IdMap()
        context = layout.fill(layout.cut(cfg.context_budget), idmap.assign)
        text = batch.render()
        prompt = build_prompt(context, text, cfg.fmt)
        events = take(w_index, lo, hi, text, prompt, idmap)
        if w_index + 1 < len(windows):  # the last window is context for none
            layout.extend(replace(batch, events=events))


def annotate_document(doc: Document, backend: ModelBackend,
                      cfg: PipelineConfig) -> tuple[Document, list[WindowReport]]:
    """Window, prompt, clean and merge; returns the prediction document and
    one report per window. A window whose backend keeps failing stays
    unannotated and contributes no mentions."""
    reports: list[WindowReport] = []
    allocator = IdAllocator()
    predicted: list[Mention] = []

    def take(w_index, lo, hi, text, prompt, idmap):
        report = WindowReport(w_index, (lo, hi))
        reports.append(report)
        completion = None
        for attempt in range(cfg.retries + 1):
            report.attempts = attempt + 1
            try:
                completion = backend.generate(prompt, ref=(doc.doc_id, w_index))
                break
            except BackendError as exc:
                report.diagnostics.append(
                    Diagnostic("backend", f"attempt {attempt + 1}: {exc}", w_index))
                if isinstance(exc, PermanentBackendError):
                    break
                if exc.retry_after and attempt < cfg.retries:
                    _sleep(exc.retry_after)
        if completion is None:
            report.diagnostics.append(
                Diagnostic("pipeline", "window left unannotated", w_index))
            return []

        local, diags = clean(text, completion, cfg.fmt, cfg.fuzzy_threshold)
        report.diagnostics.extend(diags)

        global_ann, gdiags = globalize(local, idmap, allocator)
        report.diagnostics.extend(gdiags)

        token_map = [(si, t.position) for si in range(lo, hi) for t in doc.sentences[si].tokens]
        mentions, mdiags = events_to_mentions(global_ann, token_map, doc.sentences)
        report.diagnostics.extend(mdiags)
        predicted.extend(mentions)
        report.annotated = True
        report.n_mentions = len(mentions)
        return global_ann.events

    _walk_windows(doc, cfg, take)
    return mentions_to_document(doc, predicted), reports


def annotate_documents(docs: Iterable[Document], backend: ModelBackend,
                       cfg: PipelineConfig, jobs: int = 1
                       ) -> Iterator[tuple[Document, list[WindowReport]]]:
    """(prediction, reports) of each document of ``docs``, in input order.
    Up to ``jobs`` documents are annotated at once; a document's windows run
    in order, as each prompt carries the previous window's output. At most
    ``2 * jobs`` documents read are unfinished: the next one is read when a
    slot frees up, so a worker that finishes finds one queued."""
    if jobs == 1:
        for doc in docs:
            yield annotate_document(doc, backend, cfg)
        return
    # deferred: it imports logging too, which one document at a time never needs
    from concurrent.futures import Future, ThreadPoolExecutor
    slots = threading.BoundedSemaphore(2 * jobs)  # one per read, unfinished document
    ahead: deque[Future] = deque()  # submitted and not yet yielded, in input order
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        slots.acquire()
        for doc in docs:
            ahead.append(pool.submit(annotate_document, doc, backend, cfg))
            ahead[-1].add_done_callback(lambda _: slots.release())
            while ahead and ahead[0].done():
                yield ahead.popleft().result()
            slots.acquire()  # the next read waits for a free slot
        for future in ahead:
            yield future.result()


def annotate_corpus(corpus: Corpus, backend: ModelBackend, cfg: PipelineConfig,
                    jobs: int = 1) -> tuple[Corpus, list[WindowReport]]:
    """:func:`annotate_documents` over a corpus; the predictions keep its
    datasets and order."""
    results = annotate_documents((doc for _, docs in corpus.datasets for doc in docs),
                                 backend, cfg, jobs)
    done = [(name, [next(results) for _ in docs]) for name, docs in corpus.datasets]
    return (Corpus([(name, [pred for pred, _ in rs]) for name, rs in done]),
            [r for _, rs in done for _, reports in rs for r in reports])


# -- training export --------------------------------------------------------------

@dataclass(frozen=True)
class TrainingPair:
    doc_id: str
    window_index: int
    prompt: str | None   # None in a replayed record
    completion: str

    def to_json(self) -> str:
        return json.dumps({"doc_id": self.doc_id, "window_index": self.window_index,
                           "prompt": self.prompt, "completion": self.completion},
                          ensure_ascii=False, sort_keys=True)


def export_training_pairs(source: Document | Corpus,
                          cfg: PipelineConfig) -> list[TrainingPair]:
    """Gold prompt/completion pairs, one per window, walked by the same loop
    as :func:`annotate_document` so that annotation with
    :class:`OracleBackend` reproduces the gold chains."""
    if isinstance(source, Corpus):
        return [p for _, docs in source.datasets for d in docs
                for p in export_training_pairs(d, cfg)]
    doc = source
    full = build_events(doc.sentences, doc.mentions(), cfg.fmt)
    starts = doc.sentence_starts()
    pairs: list[TrainingPair] = []

    def take(w_index, lo, hi, text, prompt, idmap):
        gold = slice_annotated(full, starts[lo], starts[hi])
        pairs.append(TrainingPair(doc.doc_id, w_index, prompt,
                                  render(gold, index=idmap.assign)))
        return gold.events

    _walk_windows(doc, cfg, take)
    return pairs


def write_pairs(path: str, pairs: list[TrainingPair]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(p.to_json() + "\n")


_RECORD_TYPES = {"doc_id": str, "window_index": int, "prompt": str, "completion": str}


def _read_jsonl(path: str, prompts: bool = True
                ) -> Iterator[tuple[int, int, TrainingPair]]:
    """(line number, byte offset of the line, record) for each record of a
    JSONL file of training pairs or, without ``prompts``, of replayed
    completions, whose prompt is not read and stays None. Blank lines are
    skipped. A record that is not UTF-8 or not a JSON object, or whose value
    is missing or of the wrong JSON type (a bool is no ``window_index``),
    raises ValueError naming its line; a bad byte also by its file offset."""
    offset = 0
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            start, offset = offset, offset + len(raw)
            try:
                line = raw.decode()
            except UnicodeDecodeError as exc:
                raise ValueError(f"'utf-8' codec can't decode byte 0x{raw[exc.start]:02x} on "
                                 f"line {line_no}, at byte offset {start + exc.start}: "
                                 f"{exc.reason}") from exc
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"record on line {line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"record on line {line_no} is not a JSON object")
            for key, kind in _RECORD_TYPES.items():
                if (prompts or key != "prompt") and type(rec.get(key)) is not kind:
                    raise ValueError(f"record on line {line_no}: {key} must be "
                                     f"{kind.__name__}, not {json.dumps(rec.get(key))}")
            yield line_no, start, TrainingPair(rec["doc_id"], rec["window_index"],
                                               rec["prompt"] if prompts else None,
                                               rec["completion"])
