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
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .align import clean
from .conllu import Chain, Corpus, Document, Mention, Token
from .diag import Diagnostic
from .formats import AnnotatedText, AtomCounts, Format, build_events, events_to_mentions
from .reindex import IdAllocator, IdMap, globalize, localize

if TYPE_CHECKING:
    import requests


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

    A span that straddles a boundary is dropped; at a sentence boundary
    nothing straddles. A cut between tokens, as :func:`truncate_context`
    makes, can fall inside a mention: its words stay in the slice untagged.
    A zero or head tag after token ``lo - 1`` is dropped with that token; a
    zero ahead of the first token stays only when ``lo`` is 0.
    """
    kept = [ev for ev in annotated.events
            if lo <= ev.anchor < hi and (ev.end is None or ev.end < hi)
            or ev.anchor == lo - 1 == -1]
    return AnnotatedText(
        list(annotated.tokens[lo:hi]),
        # events are frozen, so one that keeps its anchor is shared
        [ev.shifted(-lo) for ev in kept] if lo else kept,
        annotated.fmt,
        tuple(b - lo for b in annotated.breaks if lo < b < hi),
    )


def truncate_context(annotated: AnnotatedText, budget: int,
                     counts: AtomCounts | None = None) -> AnnotatedText:
    """Largest whole-token suffix whose prompt context is at most ``budget``
    words.

    "Words" are whitespace-separated atoms of the suffix as the prompt
    shows it, localized to display chain indices, so inline tags count
    against the budget (two atoms each in the verbose XML form). The cut is
    the smallest one whose suffix fits by ``counts``, the
    :class:`AtomCounts` of ``annotated`` (made here when not given), which
    are exact for the accumulator the window walker builds; finding it
    renders nothing and takes time logarithmic in the text's length.
    """
    if counts is None:
        counts = AtomCounts(annotated.fmt)
        counts.extend(annotated)
    return slice_annotated(annotated, counts.cut(budget), len(annotated.tokens))


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
    once. It is the only side-effecting call the pipeline makes.

    ``close`` releases what the backend holds once the run is over. The CLI
    exits soon after, but ``cli.main`` and ``annotate_corpus`` also run
    inside long-lived processes that build a backend per run; without it each
    http run would keep up to ``jobs`` idle sockets open until the session
    is collected.
    """

    def generate(self, prompt: str, ref: tuple[str, int] | None = None) -> str:
        raise NotImplementedError

    def close(self) -> None:
        pass


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
    ``pairs`` is a list, or a dict by the line each record was read on (a
    list counts from 1, as :func:`write_pairs` writes it); a second record
    for a window raises ValueError naming both lines."""

    def __init__(self, pairs, replay: bool = False):
        self.replay = replay
        self.by_ref: dict[tuple[str, int], TrainingPair] = {}
        line_of: dict[tuple[str, int], int] = {}
        for line, pair in pairs.items() if isinstance(pairs, dict) else enumerate(pairs, 1):
            ref = (pair.doc_id, pair.window_index)
            if ref in line_of:
                raise ValueError(f"record on line {line}: window {ref!r} is already "
                                 f"recorded on line {line_of[ref]}")
            line_of[ref] = line
            self.by_ref[ref] = pair

    def generate(self, prompt, ref=None):
        pair = self.by_ref.get(ref)
        if pair is None:
            kind = "replayed" if self.replay else "oracle"
            raise PermanentBackendError(f"no {kind} completion for window {ref!r}")
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
    environment (never from config files or flags).

    One session serves every thread; its connection pool holds
    ``connections`` keep-alive connections, one per concurrent caller.
    ``requests`` does not promise that a ``Session`` is thread-safe. Sharing
    one relies on each call being a plain POST with per-call headers and no
    redirect to follow: the only session state a call writes is the cookie
    jar, which ``http.cookiejar`` locks, and urllib3's connection pool is
    thread-safe. ``tests/test_http.py`` checks that ``--jobs 4`` against a
    loopback server gives the ``--jobs 1`` output byte for byte.
    A 408, 429, 5xx, timeout, connection error or malformed response is
    transient; any other 4xx is permanent.
    """

    def __init__(self, url: str, model: str, max_tokens: int = 2048,
                 timeout: float = 120.0, token_env: str = "COREFKIT_API_TOKEN",
                 session: requests.Session | None = None, connections: int = 1):
        self.url = url
        self.model = model
        self.max_tokens = max_tokens
        self.timeout = timeout
        self.token_env = token_env
        self._owns_session = session is None
        if session is None:
            import requests  # deferred: most runs never talk to an endpoint
            from requests.adapters import HTTPAdapter
            session = requests.Session()
            adapter = HTTPAdapter(pool_maxsize=connections)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.session = session

    def generate(self, prompt, ref=None):
        import requests
        headers = {}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        payload = {"model": self.model, "prompt": prompt,
                   "max_tokens": self.max_tokens, "temperature": 0}
        try:
            resp = self.session.post(self.url, json=payload, headers=headers,
                                     timeout=self.timeout)
        except requests.RequestException as exc:
            raise BackendError(f"completion request failed: {exc}") from exc
        status = resp.status_code
        if status >= 400:
            message = f"completion request failed: HTTP {status} from {self.url}"
            if status < 500 and status not in (408, 429):
                raise PermanentBackendError(message)
            raise BackendError(message, _retry_after(resp.headers.get("Retry-After"))
                               if status in (429, 503) else None)
        try:
            text = resp.json()["choices"][0]["text"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed completion response: {exc!r}") from exc
        if not isinstance(text, str):
            raise BackendError(f"completion text is not a string: {text!r}")
        return text

    def close(self) -> None:
        """Closes the session this backend made; one passed in stays open
        for its owner."""
        if self._owns_session:
            self.session.close()


# -- annotation loop -------------------------------------------------------------

def _append(acc: AnnotatedText, counts: AtomCounts, piece: AnnotatedText) -> None:
    """Append ``piece`` to ``acc`` in place and add it to ``acc``'s counts."""
    counts.extend(piece)
    offset = len(acc.tokens)
    acc.tokens += piece.tokens
    acc.events += [ev.shifted(offset) for ev in piece.events]
    acc.breaks += ((offset,) if offset else ()) + tuple(b + offset for b in piece.breaks)


def mentions_to_document(doc: Document, mentions: list[Mention]) -> Document:
    """A prediction document over ``doc``'s sentences; duplicates are kept.
    Each zero mention gets its empty node: a sentence that lacks one is
    copied with the node added, so ``doc``'s own sentences never change."""
    chains: dict[str, Chain] = {}
    sentences = list(doc.sentences)
    for m in mentions:
        chains.setdefault(m.chain_id, Chain(m.chain_id)).mentions.append(m)
        sent = sentences[m.sent_index]
        if m.is_zero and all((t.position, t.sub_index) != m.head for t in sent.empty_nodes):
            nodes = [*sent.empty_nodes, Token(m.head[0], "_", 0, True, m.head[1])]
            sentences[m.sent_index] = replace(
                sent, empty_nodes=sorted(nodes, key=lambda t: (t.position, t.sub_index)))
    for c in chains.values():
        c.sort()
    return Document(doc.doc_id, sentences, chains, list(doc.meta))


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
    the budget and localized, plus the raw batch of sentences [lo, hi),
    rendered as ``text``. ``take(w_index, lo, hi, text, prompt, idmap)``
    handles the window and returns its events, with global chain ids and
    anchored to the batch; they become context for the windows after it.
    """
    acc = AnnotatedText([], [], cfg.fmt, ())
    counts = AtomCounts(cfg.fmt)
    doc_map = IdMap() if not cfg.reindex else None
    for w_index, (lo, hi) in enumerate(iter_windows(len(doc.sentences),
                                                    cfg.sentences_per_batch)):
        batch = build_events(doc.sentences[lo:hi], (), cfg.fmt)
        context = truncate_context(acc, cfg.context_budget, counts)
        local_ctx, idmap = localize(context, doc_map)
        text = batch.render()
        prompt = build_prompt(local_ctx.render(), text, cfg.fmt)
        events = take(w_index, lo, hi, text, prompt, idmap)
        _append(acc, counts, replace(batch, events=events))


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


def annotate_corpus(corpus: Corpus, backend: ModelBackend, cfg: PipelineConfig,
                    jobs: int = 1) -> tuple[Corpus, list[WindowReport]]:
    """Documents are independent, so up to ``jobs`` of them are annotated at
    once; each document's windows still run in order, since every prompt
    carries the previous window's output. Output order always follows input
    order."""
    flat = [(name, doc) for name, docs in corpus.datasets for doc in docs]
    if jobs > 1 and len(flat) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                lambda nd: annotate_document(nd[1], backend, cfg), flat))
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
        local_gold, _ = localize(gold, idmap)
        pairs.append(TrainingPair(doc.doc_id, w_index, prompt, local_gold.render()))
        return gold.events

    _walk_windows(doc, cfg, take)
    return pairs


def write_pairs(path: str, pairs: list[TrainingPair]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(p.to_json() + "\n")


_RECORD_TYPES = {"doc_id": str, "window_index": int, "prompt": str, "completion": str}


def _read_jsonl(path: str, prompts: bool = True) -> Iterator[tuple[int, TrainingPair]]:
    """(line number, record) for each record of a JSONL file of training
    pairs or, without ``prompts``, of replayed completions, whose prompt is
    not read and stays None. Blank lines are skipped. A record that is not a
    JSON object, or whose value is missing or of the wrong JSON type (a bool
    is no ``window_index``), raises ValueError naming its line."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
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
            yield line_no, TrainingPair(rec["doc_id"], rec["window_index"],
                                        rec["prompt"] if prompts else None, rec["completion"])


def load_pairs(path: str) -> list[TrainingPair]:
    return [pair for _, pair in _read_jsonl(path)]
