"""Inline annotation formats: renderings, decoding, event geometry."""
import dataclasses

import pytest
from hypothesis import given, strategies as st

from corefkit.conllu import Sentence, Token
from corefkit.formats import (AnnotatedText, Format, FormatError, TagEvent,
                              apply_idmap, build_events, decode, encode,
                              events_to_mentions)
from corefkit.synth import SynthConfig, random_document

from conftest import GOLDEN, SISTER_IDMAP, make_sister_doc

ALL_FORMATS = [Format(v) for v in ("crac", "explicit", "minimal", "headword")]


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_showcase_rendering_is_exact(fmt):
    doc = make_sister_doc()
    out = encode(doc.sentences, doc.mentions(), fmt, SISTER_IDMAP)
    assert out.render() == GOLDEN[fmt.value]


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_decode_inverts_encode(fmt):
    annotated, diags = decode(GOLDEN[fmt.value], fmt)
    assert diags == []
    assert annotated.render() == GOLDEN[fmt.value]
    assert annotated.tokens == ["When", "Lison", "visits", "her", "sister",
                                ",", "brings", "flowers."]


@pytest.mark.parametrize("fmt", ALL_FORMATS)
def test_plain_text_passes_through(fmt):
    # the second text holds tag look-alikes that are not whole atoms
    for text in ("nothing tagged here .",
                 "x<ent1> <ent1>x </ent>> <zero2>y <ent x id=COREF_1>"):
        annotated, diags = decode(text, fmt)
        assert (annotated.render(), annotated.events, diags) == (text, [], [])
        assert annotated.tokens == text.split()


def test_explicit_tag_may_span_a_line_break():
    annotated, diags = decode("a <ent\nid=COREF_1> b </ent>\nc", Format.EXPLICIT)
    assert diags == []
    assert annotated.tokens == ["a", "b", "c"]
    assert annotated.events == [TagEvent("open", 1, 1), TagEvent("close", None, 1)]


def test_decoded_mentions_match_gold(sister_doc):
    annotated, _ = decode(GOLDEN["minimal"], Format.MINIMAL)
    token_map = [(0, p + 1) for p in range(8)]
    mentions, diags = events_to_mentions(annotated, token_map, sister_doc.sentences)
    assert diags == []
    got = sorted((str(m.chain_id), m.fragments, m.head, m.is_zero)
                 for m in mentions)
    assert got == [("1", (), (7, 1), True),
                   ("1", ((2, 2),), (2, 0), False),
                   ("1", ((4, 4),), (4, 0), False),
                   ("2", ((4, 5),), (5, 0), False)]


def test_crossing_spans_refused():
    sent = Sentence("s1", [Token(i + 1, w, 0 if i == 0 else 1)
                           for i, w in enumerate("a b c d".split())])
    from corefkit.conllu import Mention
    crossing = [Mention("e1", 0, ((1, 3),), (1, 0)),
                Mention("e2", 0, ((2, 4),), (2, 0))]
    with pytest.raises(FormatError, match="cross"):
        build_events([sent], crossing, Format.MINIMAL)
    # a sentence without a sent_id is named by its 1-based place
    unnamed = dataclasses.replace(sent, sent_id="")
    with pytest.raises(FormatError, match="in sentence 2;"):
        build_events([sent, unnamed], [dataclasses.replace(m, sent_index=1)
                                       for m in crossing], Format.MINIMAL)


def test_missing_idmap_entry_refused(sister_doc):
    events = build_events(sister_doc.sentences, sister_doc.mentions(), Format.MINIMAL)
    with pytest.raises(FormatError):
        apply_idmap(events, {"e1": 1})  # e2 unmapped


def test_crac_comma_lists_accept_any_order():
    a, _ = decode("When Lison|[e1] visits her|[e2,[e1] sister|e2] ,"
                  " brings ##|[e1] flowers.", Format.CRAC)
    b, _ = decode(GOLDEN["crac"], Format.CRAC)
    keyed = lambda ann: sorted((ev.slot(), ev.kind, ev.chain) for ev in ann.events)
    assert keyed(a) == keyed(b)


def test_zero_before_first_token_anchors_at_minus_one():
    annotated, diags = decode("##|[e3] word", Format.CRAC)
    assert diags == []
    [zero] = annotated.events
    assert (zero.kind, zero.chain, zero.anchor) == ("zero", 3, -1)
    assert annotated.render() == "##|[e3] word"


def test_unclosed_tag_tolerated_with_diagnostic():
    annotated, diags = decode("a <ent1> b <ent2> c", Format.MINIMAL)
    assert annotated.tokens == ["a", "b", "c"]
    assert any("unclosed" in d.message or "open" in d.message for d in diags)


def test_stray_close_tolerated_with_diagnostic():
    annotated, diags = decode("a </ent> b", Format.MINIMAL)
    assert annotated.tokens == ["a", "b"]
    assert diags  # the orphan close is reported, not fatal


def test_multiple_head_tags_keep_mention_order():
    annotated, diags = decode("city <ent2> <ent1> walls", Format.HEADWORD)
    assert diags == []
    assert [ev.chain for ev in annotated.events] == [2, 1]
    assert annotated.render() == "city <ent2> <ent1> walls"


def test_line_breaks_preserved_through_render():
    doc = make_sister_doc()
    out = encode(doc.sentences, doc.mentions(), Format.MINIMAL, SISTER_IDMAP)
    assert out.breaks == ()
    multi = AnnotatedText(["a", "b", "c", "d"], [], Format.MINIMAL, (2,))
    assert multi.render() == "a b\nc d"
    back, _ = decode("a b\nc d", Format.MINIMAL)
    assert back.breaks == (2,)


def event_key(annotated):
    return sorted((ev.slot(), ev.kind, ev.chain) for ev in annotated.events)


@given(seed=st.integers(0, 20_000),
       fmt=st.sampled_from(ALL_FORMATS),
       disc=st.booleans())
def test_random_round_trip_is_byte_stable(seed, fmt, disc):
    if fmt is Format.HEADWORD and disc:
        disc = False  # span-less format, discontinuity adds nothing
    cfg = SynthConfig(seed=seed, p_discontinuous=0.2 if disc else 0.0)
    doc = random_document(f"doc{seed}", cfg)
    idmap = {cid: i + 1 for i, cid in enumerate(sorted(doc.chains))}
    wire = encode(doc.sentences, doc.mentions(), fmt, idmap).render()
    back, diags = decode(wire, fmt)
    assert diags == []
    assert back.render() == wire
