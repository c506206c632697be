"""Windowed annotation loop, context trimming, backends, training export."""
import dataclasses
import hashlib
import json
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corefkit import formats, pipeline
from corefkit.conllu import Corpus, Document, Mention, parse_conllu, serialize_corpus
from corefkit.formats import AnnotatedText, Format, Layout, TagEvent, build_events
from corefkit.metrics import conll_f1
from corefkit.pipeline import (PRESETS, BackendError, EmptyBackend,
                               HttpBackend, ModelBackend, OracleBackend,
                               PermanentBackendError, PipelineConfig, TrainingPair,
                               annotate_corpus, annotate_document,
                               build_prompt, completion_of,
                               export_training_pairs, iter_windows,
                               mentions_to_document, slice_annotated,
                               truncate_context, write_pairs)
from corefkit.reindex import IdMap, localize
from corefkit.synth import SynthConfig, random_corpus, random_document

from conftest import SISTER_CONLLU, make_sister_doc, read_pairs

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


def _walker_layout(fmt, pieces):
    """A Layout extended by ``pieces``, as the window walker extends it."""
    layout = Layout(fmt)
    for piece in pieces:
        layout.extend(piece)
    return layout


@settings(max_examples=300, deadline=None)
@given(data=st.data(), drawn=_pieces())
def test_truncate_matches_bisection_on_rendered_size(data, drawn):
    fmt, pieces = drawn
    layout = _walker_layout(fmt, pieces)
    acc = layout.annotated
    size = len(acc.render().split())
    budget = data.draw(st.integers(0, size + 2))
    expected = _bisected_context(acc, budget)
    assert truncate_context(acc, budget) == expected
    # the counts kept piece by piece, as the window walker keeps them
    assert slice_annotated(acc, layout.cut(budget), len(acc.tokens)) == expected


def _sliced_by_filter(annotated, lo, hi):
    """Reference for ``slice_annotated``: one pass over every event and
    every break."""
    kept = [ev for ev in annotated.events
            if lo <= ev.anchor < hi and (ev.end is None or ev.end < hi)
            or ev.anchor == lo - 1 == -1]
    return AnnotatedText(list(annotated.tokens[lo:hi]), [ev.shifted(-lo) for ev in kept],
                         annotated.fmt, tuple(b - lo for b in annotated.breaks if lo < b < hi))


def _bounds(data, annotated):
    """A slice [lo, hi) of the text: lo often 0, hi often the last token of
    a span, which then straddles it."""
    n = len(annotated.tokens)
    lo = data.draw(st.one_of(st.just(0), st.integers(0, n)))
    ends = [ev.end for ev in annotated.events if ev.end is not None and ev.end >= lo]
    his = st.one_of(st.integers(lo, n), st.sampled_from(ends)) if ends else st.integers(lo, n)
    return lo, data.draw(his)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000), fmt=st.sampled_from(list(Format)),
       lead=st.booleans())
def test_slice_matches_linear_filter_on_built_events(data, seed, fmt, lead):
    doc = random_document("d", SynthConfig(seed=seed, p_zero=0.3))
    mentions = doc.mentions()
    if lead:  # a zero ahead of the first token, anchored at -1
        mentions.insert(0, Mention("e1", 0, (), (0, 1), True))
    full = build_events(doc.sentences, mentions, fmt)
    assert (full.events[0].anchor == -1) is lead
    lo, hi = _bounds(data, full)
    assert slice_annotated(full, lo, hi) == _sliced_by_filter(full, lo, hi)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), drawn=_pieces())
def test_slice_matches_linear_filter_on_walker_accumulators(data, drawn):
    fmt, pieces = drawn
    acc = _walker_layout(fmt, pieces).annotated
    lo, hi = _bounds(data, acc)
    assert slice_annotated(acc, lo, hi) == _sliced_by_filter(acc, lo, hi)


def _z(chain, anchor):
    return TagEvent("zero", chain, anchor)


def _s(chain, anchor, end):
    return TagEvent("span", chain, anchor, end)


@settings(max_examples=300, deadline=None)
@given(drawn=_pieces(), leads=st.integers(0, 2),
       held=st.lists(st.sampled_from(["e2", "e7", "e 3"]), max_size=3))
# a span across a line break, cut inside it; a zero at -1 in a later piece
@example(drawn=(Format.CRAC, [
    AnnotatedText(["a", "b", "c", "d"], [_s("e1", 0, 3), _s("e2", 1, 1), _s("e 3", 1, 2)],
                  Format.CRAC, (2,)),
    AnnotatedText(["x", ""], [_z("e 3", -1), _z("e1", 1), _s("e2", 1, 1)], Format.CRAC, ())]),
    leads=1, held=["e2"])
# a piece without tokens, leading zeros in two pieces, breaks at 0 and at the end
@example(drawn=(Format.MINIMAL, [
    AnnotatedText([], [_z("e1", -1)], Format.MINIMAL, (0,)),
    AnnotatedText(["a", "b", "c"], [_z("e2", -1), _s("e1", 0, 2), _s("e2", 1, 2)],
                  Format.MINIMAL, (0, 1, 3)),
    AnnotatedText(["d"], [_z("e10", -1), _s("e1", 0, 0)], Format.MINIMAL, (0,))]),
    leads=0, held=[])
# a zero at -1 after a token whose form is empty
@example(drawn=(Format.HEADWORD, [AnnotatedText([""], [], Format.HEADWORD, ()),
                                  AnnotatedText(["a"], [_z("e1", -1)], Format.HEADWORD, ())]),
         leads=0, held=[])
def test_walker_context_matches_render_at_every_cut(drawn, leads, held):
    """The walker's context, its layout filled from a cut, equals trimming
    the accumulator to that cut, localizing it and rendering it, and leaves
    the map as localize does, at every cut (0, inside a span, the last
    token), with a fresh map or one that already holds chains
    (``reindex=False``)."""
    fmt, pieces = drawn
    pieces[0].events[:0] = [_z("e10", -1)] * leads  # ahead of the text
    layout = _walker_layout(fmt, pieces)
    acc = layout.annotated
    for cut in range(len(acc.tokens) + 1):
        for chains in ([], held):
            shown, expected_map = IdMap(), IdMap()
            for chain in chains:
                shown.assign(chain)
                expected_map.assign(chain)
            expected, _ = localize(slice_annotated(acc, cut, len(acc.tokens)), expected_map)
            assert layout.fill(cut, shown.assign) == expected.render(), cut
            assert shown == expected_map


@pytest.mark.parametrize("reindex", [True, False])
@pytest.mark.parametrize("fmt", list(Format))
def test_walker_prompts_match_trimmed_then_localized_context(fmt, reindex):
    """Export pairs equal those of trimming the accumulator to a slice,
    localizing it and rendering it, window by window."""
    doc = random_document("d", SynthConfig(sentences=(30, 30), seed=5, p_zero=0.3,
                                           p_discontinuous=0.1))
    cfg = PipelineConfig(fmt=fmt, sentences_per_batch=2, context_budget=40, reindex=reindex)
    full = build_events(doc.sentences, doc.mentions(), fmt)
    starts = doc.sentence_starts()
    layout = Layout(fmt)
    acc = layout.annotated
    doc_map = None if reindex else IdMap()
    expected = []
    for lo, hi in iter_windows(len(doc.sentences), 2):
        trimmed = slice_annotated(acc, layout.cut(40), len(acc.tokens))
        context, idmap = localize(trimmed, doc_map)
        batch = build_events(doc.sentences[lo:hi], (), fmt)
        gold = slice_annotated(full, starts[lo], starts[hi])
        expected.append((build_prompt(context.render(), batch.render(), fmt),
                         localize(gold, idmap)[0].render()))
        layout.extend(dataclasses.replace(batch, events=gold.events))
    pairs = export_training_pairs(doc, cfg)
    assert [(p.prompt, p.completion) for p in pairs] == expected
    assert any(_context_of(p.prompt) != "(none)" and len(_context_of(p.prompt).split()) > 30
               for p in pairs)


# SHA-256 of the JSONL that write_pairs writes for _DIGEST_CORPUS, by format,
# window geometry (False: large-infer, True: budget 40 over 2-sentence batches)
# and reindex; taken before the walker kept its context in one formats.Layout
_PAIR_DIGESTS = {
    ("crac", False, True): "c9438ab5f587cb9169127ce116a516a56ebfacf57a4abfc03672a69c96b39e59",
    ("crac", False, False): "340bf7b7c00b06499db8c04e91d7545120e5c9cd431c09618796ab60e2435c2b",
    ("crac", True, True): "ef6d2be567ac2c6bf6653a98367ec1fc998172e8e41946edf5cdfbaf316471c4",
    ("crac", True, False): "7f5739ed6e388822a6c22feda945025bad8ac443bf6fb691bbdbbb378a7db98b",
    ("explicit", False, True): "6f577a5951ac772e956f32837715c01f89a0778c4d6ac6cbe33b3e6f7da98335",
    ("explicit", False, False): "8d6a3f65427715172de287be0d8fa8d5a4b865e994efb282288f0a4a5f9951f8",
    ("explicit", True, True): "16fbe9f92afa6e32f9fd52c7fc534c5fcdf9a7f99472effc09600ee703cb0424",
    ("explicit", True, False): "e0fa732d57f83ec38e9ad9326e990f6f6824118ec5d6c8210d03b02acd1dc9e4",
    ("minimal", False, True): "1ba3edf55c5c5ff9dabe51443da20b29bb6aa173919f63ede0ed9626bb1c5315",
    ("minimal", False, False): "dee33c4ccd43bacc38d44c2a91cdb877fafcadc83449353ed666f061bab2a0fe",
    ("minimal", True, True): "00c2dacd2dce808780575a862e1e40178fa7edb5152d7d3364c989845f6dae2f",
    ("minimal", True, False): "b04634fe1aeca03b5a6dce800b17c52897c5017484269de1c2053513cf6c002e",
    ("headword", False, True): "29e7d3c949b7623241f2be88c0abf8cf3023a4b9e2ee201b2fa27cbd663feace",
    ("headword", False, False): "847e4e5a0ee25911fc4f82a6ab8cdfa0caf7464f8d82a00ed8f9477f3868d2dc",
    ("headword", True, True): "8ecee5a99e5ee4418aa7bd265927c50db56a99effa08470cd7385b66409e3900",
    ("headword", True, False): "f6413b2fa51d616311577a81c0e0d4bc6b0dcbfae5280a0b0264294f5a31cf42",
}
# documents of 445, 268 and 93 sentences, the first past the large-infer budget
_DIGEST_CORPUS = random_corpus(3, SynthConfig(sentences=(4, 480), chains=(20, 60), p_zero=0.3,
                                              p_discontinuous=0.2, seed=2))


@pytest.mark.parametrize("reindex", [True, False])
@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("fmt", list(Format))
def test_walker_pairs_match_their_frozen_digest(fmt, small, reindex):
    """The walker's bytes, pinned: export pairs over a fixed corpus with
    zeros and discontinuous mentions hash as they did."""
    docs = _DIGEST_CORPUS.datasets[0][1]
    assert max(d.surface_token_count() for d in docs) > PRESETS["large-infer"].context_budget
    assert any(m.is_zero for d in docs for m in d.mentions())
    assert any(len(m.fragments) > 1 for d in docs for m in d.mentions())
    cfg = dataclasses.replace(PRESETS["large-infer"], fmt=fmt, reindex=reindex)
    if small:
        cfg = dataclasses.replace(cfg, context_budget=40, sentences_per_batch=2)
    jsonl = "".join(p.to_json() + "\n" for p in export_training_pairs(_DIGEST_CORPUS, cfg))
    assert hashlib.sha256(jsonl.encode()).hexdigest() == _PAIR_DIGESTS[fmt.value, small, reindex]


def test_trimming_renders_per_window_do_not_grow_with_the_document(monkeypatch):
    log = []
    real_render, real_prompt = formats.render, pipeline.build_prompt

    def logged(name, fn):
        return lambda *args, **kwargs: log.append(name) or fn(*args, **kwargs)

    # the walker calls render under its own name, AnnotatedText.render under formats'
    monkeypatch.setattr(formats, "render", logged("render", real_render))
    monkeypatch.setattr(pipeline, "render", logged("render", real_render))
    for method in ("cut", "fill", "extend"):
        monkeypatch.setattr(Layout, method, logged(method, getattr(Layout, method)))
    monkeypatch.setattr(pipeline, "build_prompt", logged("prompt", real_prompt))
    cfg = PRESETS["large-infer"]

    def calls_per_window(sentences):
        """Calls from one prompt to the next: the previous completion, the
        layout extended by the previous window, then the context (its cut
        and its fill) and the batch of the window."""
        doc = random_document("d", SynthConfig(sentences=(sentences, sentences), seed=7))
        log.clear()
        export_training_pairs(doc, cfg)
        return [tuple(sorted(run.split())) for run in " ".join(log).split("prompt")]

    short, long = calls_per_window(200), calls_per_window(1200)  # 200: under budget
    # each prompt gets its context once, cut and filled from the layout;
    # the accumulator is never rendered, and the last window extends nothing
    assert ([short[0], short[-1]] == [long[0], long[-1]]
            == [("cut", "fill", "render"), ("render",)])
    assert set(short[1:-1]) == set(long[1:-1]) == {("cut", "extend", "fill", "render", "render")}


@pytest.mark.parametrize("fmt", list(Format))
def test_layout_cut_renders_nothing(monkeypatch, fmt):
    """Trimming a long walker accumulator takes its cut from the counts alone."""
    doc = random_document("d", SynthConfig(sentences=(400, 400), seed=7))
    full = build_events(doc.sentences, doc.mentions(), fmt)
    starts = doc.sentence_starts()
    layout = _walker_layout(fmt, [slice_annotated(full, starts[lo], starts[hi])
                                  for lo, hi in iter_windows(len(doc.sentences), 6)])
    acc = layout.annotated
    calls = []
    monkeypatch.setattr(formats, "render", lambda annotated: calls.append(annotated) or "")
    kept = slice_annotated(acc, layout.cut(3072), len(acc.tokens))
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
    backend = OracleBackend(str(path), replay=True)
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


def test_oracle_backend_refuses_a_second_record_for_a_window(sister_doc, tmp_path):
    [pair] = export_training_pairs(sister_doc, PipelineConfig())
    other = TrainingPair("other", 0, "p", "c")
    with pytest.raises(ValueError, match=r"record on line 3: window \('demo', 0\) "
                                         r"is already recorded on line 1"):
        OracleBackend([pair, other, pair])
    path = tmp_path / "pairs.jsonl"  # blank lines count, and are skipped
    path.write_text("\n\n\n" + pair.to_json() + "\n" * 5 + pair.to_json() + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="line 9: .* already recorded on line 4"):
        OracleBackend(str(path), replay=True)


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


def test_http_backend_request_shape(loopback, monkeypatch):
    monkeypatch.setenv("COREFKIT_API_TOKEN", "sekrit")
    loopback.gold = {"PROMPT": "annotated!"}
    backend = HttpBackend(loopback.url, "m-1", max_tokens=64, timeout=9.0)
    assert backend.generate("PROMPT") == "annotated!"
    [seen] = loopback.seen
    assert (seen.method, seen.target) == ("POST", "/v1/completions")
    assert seen.payload == {"model": "m-1", "prompt": "PROMPT",
                            "max_tokens": 64, "temperature": 0}
    assert seen.headers["Authorization"] == "Bearer sekrit"


def test_http_backend_token_only_from_environment(loopback, monkeypatch):
    monkeypatch.delenv("COREFKIT_API_TOKEN", raising=False)
    loopback.gold = {"p": "ok"}
    HttpBackend(loopback.url, "m").generate("p")
    [seen] = loopback.seen
    assert "Authorization" not in seen.headers  # no token in env -> no auth header


def test_http_backend_wraps_failures(loopback, monkeypatch):
    monkeypatch.delenv("COREFKIT_API_TOKEN", raising=False)
    bodies = [(500, {}), (200, {"nope": 1}), (200, {"choices": [{"text": None}]}),
              (200, {"choices": [{"text": 5}]}), (200, {"choices": None})]
    loopback.script = [(status, {}, json.dumps(body).encode()) for status, body in bodies]
    backend = HttpBackend(loopback.url, "m")
    for _ in bodies:
        with pytest.raises(BackendError) as caught:
            backend.generate("p")
        assert type(caught.value) is BackendError  # transient: worth a retry
    assert loopback.calls == len(bodies)


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
    assert read_pairs(path) == pairs
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
