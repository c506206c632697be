"""Windowed annotation loop, context trimming, backends, training export."""
import json
import threading

import pytest
import requests

from corefkit.conllu import Corpus, Document, Mention
from corefkit.formats import AnnotatedText, Format, TagEvent
from corefkit.metrics import conll_f1
from corefkit.pipeline import (PRESETS, BackendError, EmptyBackend,
                               HttpBackend, ModelBackend, OracleBackend,
                               PipelineConfig, ReplayBackend, TrainingPair,
                               annotate_corpus, annotate_document,
                               build_prompt, completion_of,
                               export_training_pairs, iter_windows, load_pairs,
                               make_backend, mentions_to_document,
                               slice_annotated, truncate_context, write_pairs)
from corefkit.synth import SynthConfig, random_corpus

from conftest import make_sister_doc

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
    events = [TagEvent("open", 1, 0), TagEvent("close", None, 3),   # straddles
              TagEvent("open", 2, 2), TagEvent("close", None, 2)]
    sliced = slice_annotated(_annotated(list("abcd"), events, (2,)), 2, 4)
    assert sliced.tokens == ["c", "d"]
    assert [(ev.kind, ev.anchor) for ev in sliced.events] == [
        ("open", 0), ("close", 0)]
    assert sliced.breaks == ()


def test_truncate_respects_budget_in_rendered_atoms():
    # each open/close pair adds two rendered atoms
    events = [TagEvent("open", 1, 0), TagEvent("close", None, 5)]
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
    with pytest.raises(BackendError, match="no oracle completion"):
        backend.generate("whatever", ref=("other", 0))
    with pytest.raises(BackendError, match="does not match"):
        backend.generate("skewed prompt", ref=(sister_doc.doc_id, 0))


def test_replay_backend_serves_by_window(tmp_path, sister_doc):
    path = tmp_path / "replay.jsonl"
    path.write_text(json.dumps({"doc_id": "demo", "window_index": 0,
                                "completion": FIXTURE_COMPLETION}) + "\n")
    backend = ReplayBackend(path)
    assert backend.generate("ignored", ref=("demo", 0)) == FIXTURE_COMPLETION
    with pytest.raises(BackendError):
        backend.generate("ignored", ref=("demo", 1))
    pred, _ = annotate_document(sister_doc, backend, PipelineConfig())
    assert len(pred.chains) == 2


class FlakyBackend(ModelBackend):
    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0

    def generate(self, prompt, ref=None):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise BackendError("transient")
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


class _FakeResponse:
    def __init__(self, payload, status=200):
        self.payload = payload
        self.status = status

    def raise_for_status(self):
        if self.status >= 400:
            raise requests.HTTPError(f"{self.status}")

    def json(self):
        return self.payload


class _FakeSession:
    def __init__(self, payload, status=200):
        self.payload = payload
        self.status = status
        self.seen = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.seen.append((url, json, headers, timeout))
        return _FakeResponse(self.payload, self.status)


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


def test_http_backend_wraps_failures(monkeypatch):
    monkeypatch.delenv("COREFKIT_API_TOKEN", raising=False)
    for session in (_FakeSession({}, status=500), _FakeSession({"nope": 1}),
                    _FakeSession({"choices": [{"text": None}]}),
                    _FakeSession({"choices": [{"text": 5}]}),
                    _FakeSession({"choices": None})):
        backend = HttpBackend("http://unit.test", "m", session=session)
        with pytest.raises(BackendError):
            backend.generate("p")


def test_make_backend_kinds(tmp_path):
    assert isinstance(make_backend("empty"), EmptyBackend)
    p = tmp_path / "x.jsonl"
    p.write_text("")
    assert isinstance(make_backend("replay", path=str(p)), ReplayBackend)
    assert isinstance(make_backend("oracle", path=str(p)), OracleBackend)
    http = make_backend("http", url="u", model="m", max_tokens=1)
    assert (http.url, http.model, http.max_tokens) == ("u", "m", 1)
    with pytest.raises(ValueError):
        make_backend("nonsense")


class _CountingBackend(ModelBackend):
    single_flight = True

    def __init__(self):
        self.active = 0
        self.peak = 0
        self._guard = threading.Lock()

    def generate(self, prompt, ref=None):
        with self._guard:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            return completion_of(prompt)
        finally:
            with self._guard:
                self.active -= 1


def test_single_flight_backend_never_runs_concurrently():
    corpus = random_corpus(6, SynthConfig(seed=1), seed=1)
    backend = _CountingBackend()
    annotate_corpus(corpus, backend, PipelineConfig(), jobs=4)
    assert backend.peak == 1


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


def test_positional_trust_mode_recovers_exact_output(sister_doc):
    cfg = PipelineConfig(on_the_fly_clean=False)
    pairs = export_training_pairs(sister_doc, cfg)
    pred, _ = annotate_document(sister_doc, OracleBackend(pairs), cfg)
    gold = Corpus([("x", [sister_doc])])
    assert conll_f1(gold, Corpus([("x", [pred])])).macro_average == 100.0


@pytest.mark.parametrize("fmt", list(Format))
@pytest.mark.parametrize("opts", [dict(reindex=False, context_budget=60),
                                  dict(on_the_fly_clean=False, context_budget=3072)],
                         ids=["doc-lifetime-ids", "positional-trust"])
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


def test_training_pair_json_is_sorted_and_utf8():
    pair = TrainingPair("d", 0, "p", "víla")
    assert pair.to_json() == (
        '{"completion": "víla", "doc_id": "d", "prompt": "p", "window_index": 0}')
