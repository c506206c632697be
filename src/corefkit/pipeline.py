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
over the same corpus see byte-identical prompts. ``OracleBackend`` exploits
that to close the loop in tests; ``ReplayBackend`` re-serves captured
completions; ``HttpBackend`` talks to an OpenAI-style completions endpoint;
``EmptyBackend`` returns the batch unannotated.
"""
from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import requests

from .align import clean
from .conllu import Chain, Corpus, Document, Mention
from .diag import Diagnostic
from .formats import (OPEN, CLOSE, AnnotatedText, Format, TagEvent,
                      build_events, decode, events_to_mentions)
from .reindex import IdAllocator, IdMap, globalize, localize


@dataclass
class PipelineConfig:
    """Knobs for windowing, context and output handling."""

    fmt: Format = Format.HEADWORD
    sentences_per_batch: int = 4
    context_budget: int = 250        # max rendered words of previous context
    fuzzy_threshold: float = 0.5
    on_the_fly_clean: bool = True    # False: trust model tokens positionally
    reindex: bool = True             # False: one id numbering per document
    retries: int = 2

    def __post_init__(self):
        self.fmt = Format(self.fmt)
        if self.sentences_per_batch < 1:
            raise ValueError("sentences_per_batch must be >= 1")
        if self.context_budget < 0:
            raise ValueError("context_budget must be >= 0")


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

    Open/close pairs that straddle a boundary lose the half outside; the
    surviving half is dropped too, so the slice stays balanced. Intended for
    sentence-aligned slices, where nothing ever straddles.
    """
    events = sorted(enumerate(annotated.events), key=lambda p: (p[1].slot(), p[0]))
    stack: list[tuple[int, TagEvent]] = []
    keep: list[tuple[int, TagEvent]] = []

    def inside(ev: TagEvent) -> bool:
        if ev.kind == OPEN:
            return lo <= ev.anchor < hi
        return lo <= ev.anchor < hi or (ev.anchor == lo - 1 == -1)

    for seq, ev in events:
        if ev.kind == OPEN:
            stack.append((seq, ev))
        elif ev.kind == CLOSE:
            if not stack:
                continue
            oseq, oev = stack.pop()
            if inside(oev) and inside(ev):
                keep.append((oseq, replace(oev, anchor=oev.anchor - lo)))
                keep.append((seq, replace(ev, anchor=ev.anchor - lo)))
        elif inside(ev):
            keep.append((seq, replace(ev, anchor=max(ev.anchor - lo, -1))))
    keep.sort(key=lambda p: (p[1].slot(), p[0]))
    return AnnotatedText(
        list(annotated.tokens[lo:hi]),
        [ev for _, ev in keep],
        annotated.fmt,
        tuple(b - lo for b in annotated.breaks if lo < b < hi),
    )


def truncate_context(annotated: AnnotatedText, budget: int) -> AnnotatedText:
    """Largest whole-token suffix rendering to at most ``budget`` words.

    "Words" are whitespace-separated atoms of the rendered text, so inline
    tags count against the budget (two atoms each in the verbose XML form).
    The cut is found by bisecting on the (monotone) rendered length.
    """
    n = len(annotated.tokens)

    def size(cut: int) -> int:
        view = slice_annotated(annotated, cut, n)
        rendered = view.render()
        return len(rendered.split())

    if size(0) <= budget:
        return slice_annotated(annotated, 0, n)
    lo, hi = 0, n  # size(lo) > budget, size(hi) == 0 <= budget
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if size(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return slice_annotated(annotated, hi, n)


# -- model backends --------------------------------------------------------------

class BackendError(RuntimeError):
    """The backend could not produce a completion for this prompt."""


class ModelBackend:
    """Interface: ``generate(prompt, ref)`` returns the completion text.

    ``ref`` identifies the window as (doc_id, window_index); offline
    backends key on it, live ones may ignore it. ``single_flight`` backends
    are never called concurrently, whatever the job count. ``generate`` is
    the only side-effecting call the pipeline makes.
    """

    name = "backend"
    single_flight = False

    def generate(self, prompt: str, ref: tuple[str, int] | None = None) -> str:
        raise NotImplementedError


class EmptyBackend(ModelBackend):
    """Returns the batch text untouched — the no-mentions baseline."""

    name = "empty"

    def generate(self, prompt, ref=None):
        return completion_of(prompt)


class OracleBackend(ModelBackend):
    """Serves gold completions produced by :func:`export_training_pairs`.

    Refuses a prompt that differs from the exported one for the same window,
    which makes any train/inference skew in windowing, context trimming or id
    rewriting fail loudly instead of silently degrading scores.
    """

    name = "oracle"

    def __init__(self, pairs):
        self.by_ref = {(p.doc_id, p.window_index): p for p in pairs}

    def generate(self, prompt, ref=None):
        if ref is None or ref not in self.by_ref:
            raise BackendError(f"no oracle completion for window {ref!r}")
        pair = self.by_ref[ref]
        if pair.prompt != prompt:
            raise BackendError(
                f"prompt for window {ref!r} does not match the exported one")
        return pair.completion


class ReplayBackend(ModelBackend):
    """Serves completions captured earlier as JSONL
    ({"doc_id", "window_index", "completion"} per line)."""

    name = "replay"

    def __init__(self, path):
        self.by_ref: dict[tuple[str, int], str] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                self.by_ref[(rec["doc_id"], rec["window_index"])] = rec["completion"]

    def generate(self, prompt, ref=None):
        if ref not in self.by_ref:
            raise BackendError(f"no replayed completion for window {ref!r}")
        return self.by_ref[ref]


class HttpBackend(ModelBackend):
    """OpenAI-style completions endpoint. The bearer token is read from the
    environment (never from config files or flags)."""

    name = "http"
    single_flight = True  # one shared requests.Session; serialize access

    def __init__(self, url: str, model: str, max_tokens: int = 2048,
                 timeout: float = 120.0, token_env: str = "COREFKIT_API_TOKEN",
                 session: requests.Session | None = None):
        self.url = url
        self.model = model
        self.max_tokens = max_tokens
        self.timeout = timeout
        self.token_env = token_env
        self.session = session or requests.Session()

    def generate(self, prompt, ref=None):
        headers = {}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        payload = {"model": self.model, "prompt": prompt,
                   "max_tokens": self.max_tokens, "temperature": 0}
        try:
            resp = self.session.post(self.url, json=payload, headers=headers,
                                     timeout=self.timeout)
            resp.raise_for_status()
            text = resp.json()["choices"][0]["text"]
        except (requests.RequestException, KeyError, IndexError, TypeError,
                ValueError) as exc:
            raise BackendError(f"completion request failed: {exc}") from exc
        if not isinstance(text, str):
            raise BackendError(f"completion text is not a string: {text!r}")
        return text


def make_backend(kind: str, **kwargs) -> ModelBackend:
    if kind == "empty":
        return EmptyBackend()
    if kind == "oracle":
        return OracleBackend(load_pairs(kwargs["path"]))
    if kind == "replay":
        return ReplayBackend(kwargs["path"])
    if kind == "http":
        allowed = {"url", "model", "max_tokens", "timeout", "token_env"}
        return HttpBackend(**{k: v for k, v in kwargs.items() if k in allowed})
    raise ValueError(f"unknown backend kind {kind!r}")


# -- annotation loop -------------------------------------------------------------

def _batch_view(doc: Document, lo: int, hi: int, fmt: Format) -> AnnotatedText:
    tokens: list[str] = []
    breaks: list[int] = []
    for si in range(lo, hi):
        if si > lo:
            breaks.append(len(tokens))
        tokens.extend(t.form for t in doc.sentences[si].tokens)
    return AnnotatedText(tokens, [], fmt, tuple(breaks))


def _append(acc: AnnotatedText, piece: AnnotatedText) -> AnnotatedText:
    offset = len(acc.tokens)
    events = acc.events + [replace(ev, anchor=ev.anchor + offset) for ev in piece.events]
    breaks = acc.breaks + ((offset,) if offset else ()) + tuple(
        b + offset for b in piece.breaks)
    return AnnotatedText(acc.tokens + list(piece.tokens), events, acc.fmt, breaks)


def _clip_to_tokens(annotated: AnnotatedText, n: int) -> AnnotatedText:
    """Positionally trust the first ``n`` model tokens; balance the events."""
    clipped = AnnotatedText(list(annotated.tokens[:n]),
                            [ev for ev in annotated.events
                             if -1 <= ev.anchor < n and not (ev.kind == OPEN and ev.anchor < 0)],
                            annotated.fmt, tuple(b for b in annotated.breaks if b < n))
    # opens whose close fell off get an auto-close at the last token
    depth = 0
    for ev in clipped.events:
        if ev.kind == OPEN:
            depth += 1
        elif ev.kind == CLOSE:
            depth = max(depth - 1, 0)
    if n:
        clipped.events.extend(TagEvent(CLOSE, None, n - 1) for _ in range(depth))
    return clipped


def mentions_to_document(doc: Document, mentions: list[Mention]) -> Document:
    """A prediction document over ``doc``'s sentences; duplicates are kept."""
    chains: dict[str, Chain] = {}
    for m in mentions:
        chains.setdefault(m.chain_id, Chain(m.chain_id)).mentions.append(m)
    for c in chains.values():
        c.sort()
    return Document(doc.doc_id, doc.sentences, chains, list(doc.meta))


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

    Each window's prompt holds the annotation accumulated so far, trimmed to
    the budget and localized, plus the raw batch of sentences [lo, hi).
    ``take(w_index, lo, hi, batch, prompt, idmap)`` handles the window and
    returns its events, with global chain ids and anchored to the batch; they
    become context for the windows after it.
    """
    acc = AnnotatedText([], [], cfg.fmt, ())
    doc_map = IdMap() if not cfg.reindex else None
    for w_index, (lo, hi) in enumerate(iter_windows(len(doc.sentences),
                                                    cfg.sentences_per_batch)):
        batch = _batch_view(doc, lo, hi, cfg.fmt)
        context = truncate_context(acc, cfg.context_budget)
        local_ctx, idmap = localize(context, doc_map)
        prompt = build_prompt(local_ctx.render(), batch.render(), cfg.fmt)
        events = take(w_index, lo, hi, batch, prompt, idmap)
        acc = _append(acc, replace(batch, events=events))


def annotate_document(doc: Document, backend: ModelBackend,
                      cfg: PipelineConfig) -> tuple[Document, list[WindowReport]]:
    """Window, prompt, clean and merge; returns the prediction document and
    one report per window. A window whose backend keeps failing stays
    unannotated and contributes no mentions."""
    reports: list[WindowReport] = []
    allocator = IdAllocator()
    predicted: list[Mention] = []

    def take(w_index, lo, hi, batch, prompt, idmap):
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
        if completion is None:
            report.diagnostics.append(
                Diagnostic("pipeline", "window left unannotated", w_index))
            return []

        if cfg.on_the_fly_clean:
            local, diags = clean(batch.render(), completion, cfg.fmt,
                                 cfg.fuzzy_threshold)
        else:
            local, diags = decode(completion, cfg.fmt)
            local = _clip_to_tokens(local, len(batch.tokens))
            local.breaks = batch.breaks
        report.diagnostics.extend(diags)

        global_ann, gdiags = globalize(local, idmap, allocator)
        report.diagnostics.extend(gdiags)

        token_map: list[tuple[int, int] | None] = []
        for si in range(lo, hi):
            token_map.extend((si, t.position) for t in doc.sentences[si].tokens)
        mentions, mdiags = events_to_mentions(global_ann, token_map, doc.sentences)
        report.diagnostics.extend(mdiags)
        predicted.extend(mentions)
        report.annotated = True
        report.n_mentions = len(mentions)
        return global_ann.events

    _walk_windows(doc, cfg, take)
    return mentions_to_document(doc, predicted), reports


class _Serialized(ModelBackend):
    """Lets pooled workers share a single-flight backend by taking turns."""

    def __init__(self, inner: ModelBackend):
        self.inner = inner
        self.name = inner.name
        self._lock = threading.Lock()

    def generate(self, prompt, ref=None):
        with self._lock:
            return self.inner.generate(prompt, ref)


def annotate_corpus(corpus: Corpus, backend: ModelBackend, cfg: PipelineConfig,
                    jobs: int = 1) -> tuple[Corpus, list[WindowReport]]:
    """Documents are independent, so they fan out over a thread pool; output
    order always follows input order. Single-flight backends still see one
    request at a time."""
    flat = [(name, doc) for name, docs in corpus.datasets for doc in docs]
    if jobs > 1 and len(flat) > 1:
        worker = _Serialized(backend) if backend.single_flight else backend
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                lambda nd: annotate_document(nd[1], worker, cfg), flat))
    else:
        results = [annotate_document(doc, backend, cfg) for _, doc in flat]

    out = Corpus([(name, []) for name, _ in corpus.datasets])
    by_name = dict(out.datasets)
    reports: list[WindowReport] = []
    for (name, _), (pred, reps) in zip(flat, results):
        by_name[name].append(pred)
        reports.extend(reps)
    return out, reports


# -- training export --------------------------------------------------------------

@dataclass(frozen=True)
class TrainingPair:
    doc_id: str
    window_index: int
    prompt: str
    completion: str

    def to_json(self) -> str:
        return json.dumps({"doc_id": self.doc_id, "window_index": self.window_index,
                           "prompt": self.prompt, "completion": self.completion},
                          ensure_ascii=False, sort_keys=True)


def _sentence_starts(doc: Document) -> list[int]:
    starts = [0]
    for s in doc.sentences:
        starts.append(starts[-1] + len(s.tokens))
    return starts


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
    starts = _sentence_starts(doc)
    pairs: list[TrainingPair] = []

    def take(w_index, lo, hi, batch, prompt, idmap):
        gold = slice_annotated(full, starts[lo], starts[hi])
        local_gold, _ = localize(gold, idmap)
        pairs.append(TrainingPair(doc.doc_id, w_index, prompt, local_gold.render()))
        return gold.events

    _walk_windows(doc, cfg, take)
    return pairs


def write_pairs(path: str, pairs: list[TrainingPair]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(p.to_json() + "\n")


def load_pairs(path: str) -> list[TrainingPair]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.append(TrainingPair(rec["doc_id"], rec["window_index"],
                                        rec["prompt"], rec["completion"]))
    return out
