"""Windowed annotation loop, context trimming, backends, training export."""
import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkit import formats, pipeline
from corefkit.conllu import Corpus, Document, Mention, parse_conllu, serialize_corpus
from corefkit.formats import AnnotatedText, AtomCounts, Format, TagEvent, build_events
from corefkit.metrics import conll_f1
from corefkit.pipeline import (PRESETS, BackendError, EmptyBackend,
                               HttpBackend, ModelBackend, OracleBackend,
                               PermanentBackendError, PipelineConfig, TrainingPair,
                               annotate_corpus, annotate_document,
                               build_prompt, completion_of,
                               export_training_pairs, iter_windows, load_pairs,
                               mentions_to_document, slice_annotated,
                               truncate_context, write_pairs)
from corefkit.reindex import localize
from corefkit.synth import SynthConfig, random_corpus, random_document

from conftest import SISTER_CONLLU, make_sister_doc

FIXTURE_PROMPT = (
    "TASK: COREFERENCE ANNOTATION\n"
    "Annotate mentions and zero anaphora. Do not modify the input text.\n"
    "\n"
    "ALLOWED TAGS\n"
    "- Entities: <entN> after each mention head word\n"
    "- Zeros: <zeroN> after the anchor word\n"
    "\n"
    "PREVIOUS CONTEXT\n"
    "(none)\n"
    "\n"
    "INPUT TO ANNOTATE\n"
    "When Lison visits her sister , brings flowers.\n"
    "\n"
    "ANNOTATED OUTPUT\n"
)

FIXTURE_COMPLETION = ("When Lison <ent0> visits her <ent0> sister <ent1> ,"
                      " brings <zero0> flowers.")


def test_presets():
    assert (PRESETS["small"].sentences_per_batch,
            PRESETS["small"].context_budget) == (4, 250)
    assert (PRESETS["large-train"].sentences_per_batch,
            PRESETS["large-train"].context_budget) == (6, 1024)
    assert (PRESETS["large-infer"].sentences_per_batch,
            PRESETS["large-infer"].context_budget) == (6, 3072)


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(sentences_per_batch=0)
    with pytest.raises(ValueError):
        PipelineConfig(context_budget=-1)
    assert PipelineConfig(fmt="crac").fmt is Format.CRAC


def test_prompt_is_frozen_byte_for_byte():
    prompt = build_prompt("", "When Lison visits her sister , brings flowers.",
                          Format.HEADWORD)
    assert prompt == FIXTURE_PROMPT
    assert completion_of(prompt) == ("When Lison visits her sister ,"
                                     " brings flowers.")


def test_prompt_embeds_context_verbatim():
    prompt = build_prompt("Earlier <ent0> text", "new batch", Format.MINIMAL)
    assert "PREVIOUS CONTEXT\nEarlier <ent0> text\n" in prompt
    assert prompt.endswith("ANNOTATED OUTPUT\n")


def test_iter_windows_partitions_sentences():
    assert iter_windows(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert iter_windows(3, 5) == [(0, 3)]
    assert iter_windows(0, 4) == []


def _annotated(tokens, events, breaks=()):
    return AnnotatedText(tokens, events, Format.MINIMAL, breaks)


def test_slice_reanchors_and_drops_straddlers():
    events = [TagEvent("span", 1, 0, 3),   # straddles
              TagEvent("span", 2, 2, 2)]
    sliced = slice_annotated(_annotated(list("abcd"), events, (2,)), 2, 4)
    assert sliced.tokens == ["c", "d"]
    assert [(ev.kind, ev.anchor, ev.end) for ev in sliced.events] == [("span", 0, 0)]
    assert sliced.breaks == ()


def test_truncate_respects_budget_in_rendered_atoms():
    # each span adds two rendered atoms, its open and close tags
    events = [TagEvent("span", 1, 0, 5)]
    ann = _annotated([f"w{i}" for i in range(6)], events)
    assert len(ann.render().split()) == 8

    kept = truncate_context(ann, 8)
    assert kept.tokens == ann.tokens
    kept = truncate_context(ann, 7)
    # dropping any token severs the span, so its two tag atoms vanish too
    assert len(kept.render().split()) <= 7
    assert truncate_context(ann, 0).tokens == []


@pytest.mark.parametrize("budget", [0, 1, 3, 5, 9, 40])
def test_truncate_is_a_suffix_and_fits(budget):
    events = [TagEvent("head", 1, 2), TagEvent("head", 2, 7)]
    ann = AnnotatedText([f"w{i}" for i in range(12)], events,
                        Format.HEADWORD, (4, 8))
    kept = truncate_context(ann, budget)
    assert len(kept.render().split()) <= budget or budget == 0
    assert ann.tokens[len(ann.tokens) - len(kept.tokens):] == kept.tokens


def _bisected_context(annotated, budget):
    """Reference cut: bisection on the rendered size of each probed suffix."""
    n = len(annotated.tokens)

    def size(cut):
        return len(localize(slice_annotated(annotated, cut, n))[0].render().split())

    if size(0) <= budget:
        return slice_annotated(annotated, 0, n)
    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if size(mid) <= budget:
            hi = mid
        else:
            lo = mid
    return slice_annotated(annotated, hi, n)


_KINDS = {Format.CRAC: ("span", "zero"),
          Format.EXPLICIT: ("span", "zero"),
          Format.MINIMAL: ("span", "zero"),
          Format.HEADWORD: ("head", "zero")}


def _crosses(a, b):
    return a.anchor < b.anchor <= a.end < b.end or b.anchor < a.anchor <= b.end < a.end


@st.composite
def _pieces(draw):
    """A format and a few annotated pieces: forms empty, blank, multi-word or
    plain; events of the format's kinds in slot order, spans nested, zeros
    anchored from -1 and other tags from 0, one chain id with a space;
    breaks anywhere."""
    fmt = draw(st.sampled_from(list(Format)))
    chains = st.sampled_from(["e1", "e2", "e10", "e 3"])
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        tokens = draw(st.lists(st.sampled_from(
            ["w", "word", "", " ", "New York", "end ", "\xa0", "a|b"]), max_size=8))
        n = len(tokens)
        events = []
        for kind in draw(st.lists(st.sampled_from(_KINDS[fmt]), max_size=8)):
            if n == 0 and kind != "zero":
                continue
            anchor = draw(st.integers(-1 if kind == "zero" else 0, n - 1))
            ev = TagEvent(kind, draw(chains), anchor,
                          draw(st.integers(anchor, n - 1)) if kind == "span" else None)
            if kind != "span" or not any(_crosses(ev, other) for other in events
                                         if other.kind == "span"):
                events.append(ev)
        # slot order, the outer of two spans that open together first
        events.sort(key=lambda ev: (ev.slot(), -(ev.end or 0)))
        breaks = draw(st.lists(st.integers(0, n), unique=True))
        pieces.append(AnnotatedText(tokens, events, fmt, tuple(sorted(breaks))))
    return fmt, pieces


@settings(max_examples=300, deadline=None)
@given(data=st.data(), drawn=_pieces())
def test_truncate_matches_bisection_on_rendered_size(data, drawn):
    fmt, pieces = drawn
    acc, counts = AnnotatedText([], [], fmt, ()), AtomCounts(fmt)
    for piece in pieces:
        pipeline._append(acc, counts, piece)
    size = len(acc.render().split())
    budget = data.draw(st.integers(0, size + 2))
    expected = _bisected_context(acc, budget)
    assert truncate_context(acc, budget) == expected
    # the counts kept piece by piece, as the window walker keeps them
    assert truncate_context(acc, budget, counts) == expected


def test_trimming_renders_per_window_do_not_grow_with_the_document(monkeypatch):
    log = []
    real_render, real_prompt = formats.render, pipeline.build_prompt
    monkeypatch.setattr(formats, "render",
                        lambda annotated: log.append("render") or real_render(annotated))
    monkeypatch.setattr(pipeline, "build_prompt",
                        lambda *args: log.append("prompt") or real_prompt(*args))
    cfg = PRESETS["large-infer"]

    def most_renders_per_window(sentences):
        """Renders from one prompt to the next: the previous completion, then
        trimming, context and batch of the window."""
        doc = random_document("d", SynthConfig(sentences=(sentences, sentences), seed=7))
        log.clear()
        export_training_pairs(doc, cfg)
        return max(run.count("render") for run in " ".join(log).split("prompt"))

    assert most_renders_per_window(1200) <= most_renders_per_window(200)  # 200: under budget


@pytest.mark.parametrize("fmt", list(Format))
def test_truncate_context_renders_nothing(monkeypatch, fmt):
    """Trimming a long walker accumulator takes its cut from the counts alone."""
    doc = random_document("d", SynthConfig(sentences=(400, 400), seed=7))
    full = build_events(doc.sentences, doc.mentions(), fmt)
    starts = doc.sentence_starts()
    acc, counts = AnnotatedText([], [], fmt, ()), AtomCounts(fmt)
    for lo, hi in iter_windows(len(doc.sentences), 6):
        pipeline._append(acc, counts, slice_annotated(full, starts[lo], starts[hi]))
    calls = []
    monkeypatch.setattr(formats, "render", lambda annotated: calls.append(annotated) or "")
    kept = truncate_context(acc, 3072, counts)
    assert calls == []
    assert 0 < len(kept.tokens) < len(acc.tokens)


def _context_of(prompt):
    return prompt.split("PREVIOUS CONTEXT\n")[1].split("\n\nINPUT TO ANNOTATE")[0]


def test_window_pairs_cover_the_document():
    doc = random_corpus(1, SynthConfig(seed=3), seed=3).datasets[0][1][0]
    cfg = PipelineConfig(sentences_per_batch=2, context_budget=40)
    pairs = export_training_pairs(doc, cfg)
    covered = [line for p in pairs for line in completion_of(p.prompt).split("\n")]
    assert covered == [" ".join(t.form for t in s.tokens) for s in doc.sentences]
    assert _context_of(pairs[0].prompt) == "(none)"  # no context before the first window
    for p in pairs[1:]:
        assert len(_context_of(p.prompt).split()) <= 40


# -- backends ----------------------------------------------------------------


def test_empty_backend_annotates_nothing(sister_doc):
    pred, reports = annotate_document(sister_doc, EmptyBackend(),
                                      PipelineConfig())
    assert pred.chains == {}
    assert [r.annotated for r in reports] == [True]


def test_oracle_backend_round_trips_the_fixture(sister_doc):
    cfg = PipelineConfig()
    pairs = export_training_pairs(sister_doc, cfg)
    assert [(p.prompt, p.completion) for p in pairs] == [
        (FIXTURE_PROMPT, FIXTURE_COMPLETION)]
    pred, reports = annotate_document(sister_doc, OracleBackend(pairs), cfg)
    gold = Corpus([("x", [sister_doc])])
    assert conll_f1(gold, Corpus([("x", [pred])])).macro_average == 100.0


def test_oracle_backend_refuses_unknown_or_skewed_prompts(sister_doc):
    pairs = export_training_pairs(sister_doc, PipelineConfig())
    backend = OracleBackend(pairs)
    with pytest.raises(PermanentBackendError, match="no oracle completion"):
        backend.generate("whatever", ref=("other", 0))
    with pytest.raises(PermanentBackendError, match="does not match"):
        backend.generate("skewed prompt", ref=(sister_doc.doc_id, 0))


def test_replay_backend_serves_by_window(tmp_path, sister_doc):
    path = tmp_path / "replay.jsonl"
    path.write_text(json.dumps({"doc_id": "demo", "window_index": 0,
                                "completion": FIXTURE_COMPLETION}) + "\n")
    backend = OracleBackend(dict(pipeline._read_jsonl(path, prompts=False)), replay=True)
    assert backend.generate("ignored", ref=("demo", 0)) == FIXTURE_COMPLETION
    with pytest.raises(PermanentBackendError, match="no replayed completion"):
        backend.generate("ignored", ref=("demo", 1))
    pred, _ = annotate_document(sister_doc, backend, PipelineConfig())
    assert len(pred.chains) == 2


def test_annotating_leaves_its_input_unchanged():
    # prediction documents share the input's sentences and tokens; a replayed
    # zero after "visits", where the input has no empty node, must go into a
    # copy of its sentence
    gold = Corpus([("x", parse_conllu(SISTER_CONLLU))])
    before = serialize_corpus(gold.datasets[0][1])
    completion = ("When Lison <ent0> visits <zero0> her <ent0> sister <ent1> , "
                  "brings <zero0> flowers.")
    backend = OracleBackend([TrainingPair("demo", 0, None, completion)], replay=True)
    pred, _ = annotate_corpus(gold, backend, PipelineConfig())
    [[pred_doc]] = [docs for _, docs in pred.datasets]
    assert [t.tid for t in pred_doc.sentences[0].empty_nodes] == ["3.1", "7.1"]
    assert serialize_corpus(gold.datasets[0][1]) == before


def test_oracle_backend_refuses_a_second_record_for_a_window(sister_doc):
    [pair] = export_training_pairs(sister_doc, PipelineConfig())
    other = TrainingPair("other", 0, "p", "c")
    with pytest.raises(ValueError, match=r"record on line 3: window \('demo', 0\) "
                                         r"is already recorded on line 1"):
        OracleBackend([pair, other, pair])
    with pytest.raises(ValueError, match="line 9: .* already recorded on line 4"):
        OracleBackend({4: pair, 9: pair}, replay=True)


class FlakyBackend(ModelBackend):
    def __init__(self, fail_times, error=BackendError):
        self.fail_times = fail_times
        self.error = error
        self.calls = 0

    def generate(self, prompt, ref=None):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise self.error("transient")
        return completion_of(prompt)


def test_retries_then_success(sister_doc):
    backend = FlakyBackend(fail_times=2)
    _, [report] = annotate_document(sister_doc, backend,
                                    PipelineConfig(retries=2))
    assert report.annotated and report.attempts == 3


def test_exhausted_retries_leave_window_unannotated(sister_doc):
    backend = FlakyBackend(fail_times=99)
    pred, [report] = annotate_document(sister_doc, backend,
                                       PipelineConfig(retries=1))
    assert not report.annotated and report.attempts == 2
    assert pred.chains == {}
    assert any("unannotated" in d.message for d in report.diagnostics)


def test_permanent_failure_is_not_retried(sister_doc):
    backend = FlakyBackend(fail_times=1, error=PermanentBackendError)
    _, [report] = annotate_document(sister_doc, backend, PipelineConfig(retries=2))
    assert not report.annotated and report.attempts == backend.calls == 1


class _FakeResponse:
    def __init__(self, payload, status=200):
        self.payload = payload
        self.status_code = status
        self.headers = {}

    def json(self):
        return self.payload


class _FakeSession:
    def __init__(self, payload, status=200):
        self.payload = payload
        self.status = status
        self.seen = []
        self.closed = False

    def post(self, url, json=None, headers=None, timeout=None):
        self.seen.append((url, json, headers, timeout))
        return _FakeResponse(self.payload, self.status)

    def close(self):
        self.closed = True


def test_http_backend_request_shape(monkeypatch):
    monkeypatch.setenv("COREFKIT_API_TOKEN", "sekrit")
    session = _FakeSession({"choices": [{"text": "annotated!"}]})
    backend = HttpBackend("http://unit.test/v1", "m-1", max_tokens=64,
                          timeout=9.0, session=session)
    assert backend.generate("PROMPT") == "annotated!"
    [(url, payload, headers, timeout)] = session.seen
    assert url == "http://unit.test/v1"
    assert payload == {"model": "m-1", "prompt": "PROMPT",
                       "max_tokens": 64, "temperature": 0}
    assert headers == {"Authorization": "Bearer sekrit"}
    assert timeout == 9.0


def test_http_backend_token_only_from_environment(monkeypatch):
    monkeypatch.delenv("COREFKIT_API_TOKEN", raising=False)
    session = _FakeSession({"choices": [{"text": "ok"}]})
    HttpBackend("http://unit.test", "m", session=session).generate("p")
    assert session.seen[0][2] == {}  # no token in env -> no auth header


def test_http_backend_leaves_a_passed_session_open():
    session = _FakeSession({"choices": [{"text": "ok"}]})
    HttpBackend("http://unit.test", "m", session=session).close()
    assert not session.closed


def test_http_backend_wraps_failures(monkeypatch):
    monkeypatch.delenv("COREFKIT_API_TOKEN", raising=False)
    for session in (_FakeSession({}, status=500), _FakeSession({"nope": 1}),
                    _FakeSession({"choices": [{"text": None}]}),
                    _FakeSession({"choices": [{"text": 5}]}),
                    _FakeSession({"choices": None})):
        backend = HttpBackend("http://unit.test", "m", session=session)
        with pytest.raises(BackendError):
            backend.generate("p")


class _PairedBackend(EmptyBackend):
    """Holds its first two calls until both have arrived, so they pass only
    when they run at once."""

    def __init__(self):
        self.gate = threading.Barrier(2, timeout=5)
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, prompt, ref=None):
        with self._lock:
            self.calls += 1
            held = self.calls <= 2
        if held:
            self.gate.wait()
        return super().generate(prompt, ref)


def test_pooled_documents_run_concurrently():
    corpus = random_corpus(6, SynthConfig(seed=1), seed=1)
    backend = _PairedBackend()
    annotate_corpus(corpus, backend, PipelineConfig(), jobs=2)
    assert not backend.gate.broken


def test_many_workers_give_the_serial_prediction():
    gold = random_corpus(16, SynthConfig(seed=4, sentences=(1, 14)), seed=4)
    cfg = PipelineConfig(sentences_per_batch=2, context_budget=40)
    backend = OracleBackend(export_training_pairs(gold, cfg))
    serial, serial_reports = annotate_corpus(gold, backend, cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled, pooled_reports = annotate_corpus(gold, backend, cfg, jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert all(r.annotated for r in pooled_reports)
    assert pooled_reports == serial_reports
    assert (serialize_corpus(pooled.datasets[0][1])
            == serialize_corpus(serial.datasets[0][1]))


def test_annotate_corpus_keeps_input_order():
    corpus = random_corpus(5, SynthConfig(seed=2), seed=2)
    cfg = PipelineConfig()
    serial, _ = annotate_corpus(corpus, EmptyBackend(), cfg, jobs=1)
    pooled, _ = annotate_corpus(corpus, EmptyBackend(), cfg, jobs=3)
    ids = lambda c: [d.doc_id for _, docs in c.datasets for d in docs]
    assert ids(pooled) == ids(serial) == ids(corpus)


# -- training export ------------------------------------------------------------


def test_export_accepts_documents_and_corpora(sister_doc):
    cfg = PipelineConfig()
    by_doc = export_training_pairs(sister_doc, cfg)
    by_corpus = export_training_pairs(Corpus([("x", [sister_doc])]), cfg)
    assert by_doc == by_corpus


def test_pairs_round_trip_through_jsonl(tmp_path, sister_doc):
    pairs = export_training_pairs(sister_doc, PipelineConfig())
    path = tmp_path / "pairs.jsonl"
    write_pairs(str(path), pairs)
    assert load_pairs(str(path)) == pairs
    rec = json.loads(path.read_text().splitlines()[0])
    assert set(rec) == {"doc_id", "window_index", "prompt", "completion"}


def test_context_carries_prior_window_annotation():
    corpus = random_corpus(1, SynthConfig(seed=5, sentences=(4, 4)), seed=5)
    doc = corpus.datasets[0][1][0]
    cfg = PipelineConfig(sentences_per_batch=2, context_budget=3072)
    first, second = export_training_pairs(doc, cfg)
    assert "PREVIOUS CONTEXT\n(none)" in first.prompt
    assert "PREVIOUS CONTEXT\n(none)" not in second.prompt
    # with an ample budget the second window's context is exactly the first
    # window's annotated output, ids renumbered identically
    assert _context_of(second.prompt) == first.completion


def test_oracle_closure_with_doc_lifetime_ids(sister_doc):
    cfg = PipelineConfig(reindex=False)
    pairs = export_training_pairs(sister_doc, cfg)
    pred, _ = annotate_document(sister_doc, OracleBackend(pairs), cfg)
    gold = Corpus([("x", [sister_doc])])
    assert conll_f1(gold, Corpus([("x", [pred])])).macro_average == 100.0


@pytest.mark.parametrize("fmt", list(Format))
@pytest.mark.parametrize("opts", [dict(reindex=False, context_budget=60),
                                  dict(context_budget=3072)],
                         ids=["doc-lifetime-ids", "cleaned"])
def test_multi_window_oracle_closure(fmt, opts):
    # many windows per document, so the id numbering carried from window to
    # window (one IdMap for the whole document without reindex) is exercised
    gold = random_corpus(30, SynthConfig(seed=11, sentences=(5, 12), p_zero=0.2,
                                         p_discontinuous=0.1))
    cfg = PipelineConfig(fmt=fmt, sentences_per_batch=2, **opts)
    pred, _ = annotate_corpus(gold, OracleBackend(export_training_pairs(gold, cfg)), cfg)
    assert conll_f1(gold, pred).macro_average == 100.0


def test_mentions_to_document_keeps_duplicates(sister_doc):
    m = Mention("e1", 0, ((2, 2),), (2, 0))
    doc = mentions_to_document(sister_doc, [m, m])
    assert len(doc.chains["e1"].mentions) == 2


def test_mentions_to_document_gives_each_zero_its_empty_node(sister_doc):
    zeros = [Mention("e1", 0, (), (3, 1), True), Mention("e1", 0, (), (7, 1), True)]
    doc = mentions_to_document(sister_doc, zeros)
    assert [t.tid for t in doc.sentences[0].empty_nodes] == ["3.1", "7.1"]
    assert doc.sentences[0].empty_nodes[1] is sister_doc.sentences[0].empty_nodes[0]
    assert sister_doc == make_sister_doc()  # the gold sentence is copied, not extended
    # a sentence that holds every node it needs is shared, not copied
    assert mentions_to_document(sister_doc, zeros[1:]).sentences[0] is sister_doc.sentences[0]


def test_training_pair_json_is_sorted_and_utf8():
    pair = TrainingPair("d", 0, "p", "víla")
    assert pair.to_json() == (
        '{"completion": "víla", "doc_id": "d", "prompt": "p", "window_index": 0}')
