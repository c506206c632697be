"""Inline annotation formats: renderings, decoding, event geometry."""
import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from corefkit import formats
from corefkit.conllu import Sentence, Token
from corefkit.formats import (CLOSE, OPEN, SPAN, TAGS, ZERO, AnnotatedText, Format,
                              FormatError, Layout, TagEvent, apply_idmap, build_events,
                              decode, encode, events_to_mentions, render)
from corefkit.synth import SynthConfig, perturb, random_document

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
    assert annotated.events == [TagEvent("span", 1, 1, 1)]


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


@pytest.mark.parametrize("text, spans", [
    # the later close ends the inner span; the outer one closes at the last token
    ("<ent1> <ent2> </ent> river before river </ent> flows",
     [("1", ((1, 4),)), ("2", ((1, 3),))]),
    # the early close uses up no open, so the close after "doctor" ends chain 2
    ("<ent2> </ent> doctor </ent> <ent3> with with <ent2> </ent> </ent>",
     [("2", ((1, 1),)), ("3", ((2, 3),))]),
])
def test_close_before_any_token_closes_nothing(text, spans):
    annotated, diags = decode(text, Format.MINIMAL)
    assert "close tag before any token" in [d.message for d in diags]
    tokens = [Token(p, form) for p, form in enumerate(annotated.tokens, start=1)]
    mentions, _ = events_to_mentions(annotated, [(0, t.position) for t in tokens],
                                     [Sentence("s1", tokens)])
    assert sorted((m.chain_id, m.fragments) for m in mentions) == spans


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


def _render_per_token(annotated):
    """Reference for ``render``: one token at a time, each line a list of
    atoms joined at the end."""
    breaks = set(annotated.breaks)
    before, suffix, after = {}, {}, {}
    if annotated.fmt is Format.CRAC:
        ranked = {}
        for ev in annotated.events:
            if ev.kind == ZERO:
                after.setdefault(ev.anchor, []).append(f"##|[e{ev.chain}]")
            elif ev.kind == SPAN and ev.end == ev.anchor:
                ranked.setdefault(ev.anchor, ([], [], []))[0].append(f"[e{ev.chain}]")
            elif ev.kind == SPAN:
                ranked.setdefault(ev.anchor, ([], [], []))[1].append(f"[e{ev.chain}")
                ranked.setdefault(ev.end, ([], [], []))[2].append(f"e{ev.chain}]")
        suffix = {i: s + o + c[::-1] for i, (s, o, c) in ranked.items()}
    else:
        tags = {kind: template.format for kind, template in TAGS[annotated.fmt].items()}
        for ev in annotated.events:
            if ev.kind == SPAN:
                before.setdefault(ev.anchor, []).append(tags[OPEN](k=ev.chain))
                after.setdefault(ev.end, []).append(tags[CLOSE]())
            else:
                after.setdefault(ev.anchor, []).append(tags[ev.kind](k=ev.chain))
    lines = [list(after.get(-1, ()))]
    for i, form in enumerate(annotated.tokens):
        if i in breaks:
            lines.append([])
        line = lines[-1]
        line.extend(before.get(i, ()))
        items = suffix.get(i)
        line.append(form + "|" + ",".join(items) if items else form)
        line.extend(after.get(i, ()))
    return "\n".join(" ".join(line) for line in lines)


@st.composite
def _annotated(draw):
    """Valid annotated text of any format: forms empty, blank, ending in
    whitespace or multi-word; nested spans in slot order; zeros from -1;
    breaks unsorted, repeated, at 0 and past the last token."""
    fmt = draw(st.sampled_from(ALL_FORMATS))
    tokens = draw(st.lists(st.sampled_from(
        ["w", "word", "", " ", "end ", "New York", "\xa0", "a|b", "##"]), max_size=10))
    n = len(tokens)
    events = []
    kinds = ("head", "zero") if fmt is Format.HEADWORD else ("span", "zero")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=10)):
        if n == 0 and kind != "zero":
            continue
        anchor = draw(st.integers(-1 if kind == "zero" else 0, n - 1))
        ev = TagEvent(kind, draw(st.integers(0, 12)), anchor,
                      draw(st.integers(anchor, n - 1)) if kind == "span" else None)
        if kind != "span" or not any(
                a.anchor < b.anchor <= a.end < b.end
                for other in events if other.kind == "span"
                for a, b in ((ev, other), (other, ev))):
            events.append(ev)
    events.sort(key=lambda ev: (ev.slot(), -(ev.end or 0)))
    breaks = draw(st.lists(st.integers(0, n + 2), max_size=6))
    return AnnotatedText(tokens, events, fmt, tuple(breaks))


@settings(max_examples=500)
@given(_annotated())
@example(AnnotatedText([], [TagEvent("zero", 1, -1)], Format.MINIMAL, (0,)))
@example(AnnotatedText(["a"], [TagEvent("zero", 1, -1)], Format.CRAC, (0, 0, 1, 5)))
@example(AnnotatedText(["end ", ""], [TagEvent("span", 2, 0, 1)], Format.CRAC, (1,)))
# out of slot order, and one anchored past the text
@example(AnnotatedText(["a", "b", "c"], [TagEvent("span", 1, 2, 2), TagEvent("zero", 2, 0),
                                         TagEvent("zero", 3, 5), TagEvent("span", 4, 0, 1)],
                       Format.MINIMAL, (1,)))
def test_render_matches_per_token_reference(annotated):
    assert render(annotated) == _render_per_token(annotated)


def test_a_cut_never_opens_with_an_empty_line():
    """Uncut, a break at 0 (an empty first sentence) opens an empty line; a
    cut of the walker's layout, at 0 too, keeps only the breaks above it,
    and leading zeros only at 0."""
    text = AnnotatedText(["a", "b", "c"], [TagEvent("zero", 1, -1), TagEvent("head", 2, 1)],
                         Format.HEADWORD, (0, 1, 2))
    assert render(text) == "<zero1>\na\nb <ent2>\nc"
    layout = Layout(Format.HEADWORD)
    layout.extend(text)
    assert layout.fill(0) == "<zero1> a\nb <ent2>\nc"
    assert layout.fill(1) == "b <ent2>\nc"
    assert layout.fill(1, index=lambda chain: chain + 5) == "b <ent7>\nc"


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 20_000), fmt=st.sampled_from(ALL_FORMATS))
def test_render_matches_per_token_reference_on_perturbed_output(seed, fmt):
    doc = random_document(f"doc{seed}", SynthConfig(seed=seed, p_zero=0.3))
    idmap = {cid: i for i, cid in enumerate(sorted(doc.chains))}
    wire = encode(doc.sentences, doc.mentions(), fmt, idmap).render()
    noisy = perturb(wire, random.Random(seed), p_drop=0.2, p_dup=0.2, p_typo=0.2)
    decoded, _ = decode(noisy, fmt)
    assert render(decoded) == _render_per_token(decoded)


# -- decoding: the whole-text walk as oracle -----------------------------------

def _walk_decode(text, fmt):
    """The whole-text walk every tag format decoded by before the one-atom
    formats read their lines word by word: kept as the oracle for those."""
    dec = formats._Decoder(fmt)
    raw_breaks = []
    text = "\n".join(text.splitlines())
    end = 0
    for m in formats._ATOMS[fmt].finditer(text):
        if text.find("\n", end, m.start()) >= 0:
            raw_breaks.append(len(dec.tokens))
        end = m.end()
        kind = m.lastgroup
        if kind is None:
            dec.tokens.append(m[0])
        elif kind == OPEN:
            dec.open(int(m[kind]))
        elif kind == CLOSE:
            dec.close()
        else:
            dec.after_tag(kind, int(m[kind]))
    annotated, diags = dec.finish()
    annotated.breaks = tuple(sorted({b for b in raw_breaks if 0 < b < len(annotated.tokens)}))
    return annotated, diags


# every separator that str.split or str.splitlines treats specially, and some
# that neither does
_SEPARATORS = [" ", "  ", "\n", "\r\n", "\r", "\n\n", "\t", "\v", "\f", "\x1c", "\x1d",
               "\x1e", "\x1f", "\x85", "\xa0", " ", "　", " ", " "]
_PIECES = ["river", "x", "<ent1>", "<ent23>", "</ent>", "<zero4>", "<ent3>x", "x</ent>",
           "<ent²>", "<ent٣>", "<zero>", "<ent 1>", "</ent>>", "<", "<<ent1>", "​"]


@given(pieces=st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from(_SEPARATORS)),
                       max_size=30),
       lead=st.sampled_from(["", " ", "\n", "\r\n"]),
       fmt=st.sampled_from([Format.MINIMAL, Format.HEADWORD]))
@settings(max_examples=400)
def test_one_atom_formats_decode_as_the_whole_text_walk(pieces, lead, fmt):
    text = lead + "".join(piece + sep for piece, sep in pieces)
    assert decode(text, fmt) == _walk_decode(text, fmt)


def test_one_atom_tags_decide_the_word_by_word_reading():
    # minimal and headword read words one at a time because each of their
    # tags is a single atom that opens with "<"
    for fmt in (Format.MINIMAL, Format.HEADWORD):
        assert all(" " not in t and t.startswith("<") for t in TAGS[fmt].values())
    assert any(" " in t for t in TAGS[Format.EXPLICIT].values())


# an id of more digits than int() reads (4,300 by default)
_LONG_ID = "9" * 5000


@pytest.mark.parametrize("fmt, text, tokens, at", [
    (Format.MINIMAL, f"<ent1> a </ent> <ent{_LONG_ID}> b",
     ["a", f"<ent{_LONG_ID}>", "b"], 1),
    (Format.HEADWORD, f"a <ent1> b <zero{_LONG_ID}>", ["a", "b", f"<zero{_LONG_ID}>"], 2),
    (Format.EXPLICIT, f"<ent id=COREF_1> a </ent> <ent\nid=COREF_{_LONG_ID}> b",
     ["a", "<ent", f"id=COREF_{_LONG_ID}>", "b"], 1),
    (Format.CRAC, f"a|[e1] b|[e{_LONG_ID}]", ["a", f"b|[e{_LONG_ID}]"], 1),
], ids=["minimal", "headword", "explicit", "crac"])
def test_tag_id_past_the_int_digit_limit_is_read_as_text(fmt, text, tokens, at):
    annotated, diags = decode(text, fmt)
    assert annotated.tokens == tokens
    [(chain, anchor)] = [(ev.chain, ev.anchor) for ev in annotated.events]
    assert (chain, anchor) == (1, 0)
    too_long = [d for d in diags if d.message == "tag id too long; read as text"]
    assert [(d.stage, d.position) for d in too_long] == [("decode", at)]
