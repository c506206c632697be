"""Repairing noisy model output: anchoring, fuzzy matching, tag projection."""
import random

import pytest
from hypothesis import given, strategies as st

from corefkit import align
from corefkit.align import (align_tokens, anchor_align, clean, edit_similarity,
                            similarity_bound)
from corefkit.formats import Format, encode
from corefkit.synth import SynthConfig, perturb, random_document

from conftest import GOLDEN, SISTER_IDMAP, make_sister_doc


def test_identity_alignment():
    toks = "the quick brown fox".split()
    al = align_tokens(toks, toks)
    assert al.out_to_in() == {0: 0, 1: 1, 2: 2, 3: 3}


def test_duplicate_token_recovered_in_gap():
    # both b's match, thanks to recursion into the gaps between unique anchors
    al = anchor_align(["a", "b", "c", "b", "d"], ["a", "b", "c", "b", "d"])
    assert al.out_to_in() == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_swapped_ends_keep_exactly_one_pair():
    # any two of the three equal-token pairs cross, so a monotone alignment
    # can keep at most one of them
    al = align_tokens(["a", "x", "b"], ["b", "x", "a"])
    [(o, i, _)] = al.pairs
    assert ["b", "x", "a"][o] == ["a", "x", "b"][i]


def test_alignment_is_monotone_and_injective():
    inp = "w1 w2 w3 w4 w5 w6".split()
    out = "w2 w4 extra w5".split()
    pairs = align_tokens(inp, out).pairs
    outs = [o for o, _, _ in pairs]
    ins = [i for _, i, _ in pairs]
    assert outs == sorted(outs) and len(set(outs)) == len(outs)
    assert ins == sorted(ins) and len(set(ins)) == len(ins)


def test_edit_similarity_examples():
    assert edit_similarity("colour", "color") == pytest.approx(5 / 6)
    assert edit_similarity("same", "same") == 1.0
    assert edit_similarity("", "word") == 0.0
    assert edit_similarity("ab", "ba") == 0.0  # two swaps out of two chars


def _textbook_similarity(a, b):
    """The plain Levenshtein programme, the reference for edit_similarity."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return 1.0 - prev[-1] / max(len(a), len(b))


@given(a=st.text("abcdé", max_size=10), b=st.text("abcdé", max_size=10),
       threshold=st.floats(0.0, 1.0))
def test_similarity_bound_is_never_below_the_similarity(a, b, threshold):
    similarity = edit_similarity(a, b)
    assert similarity == _textbook_similarity(a, b)
    assert similarity_bound(a, b, threshold, {}) >= similarity


def test_output_sharing_no_character_measures_only_first_candidates(monkeypatch):
    calls = []
    monkeypatch.setattr(align, "edit_similarity",
                        lambda a, b: calls.append((a, b)) or edit_similarity(a, b))
    rng = random.Random(0)
    words = ["".join(rng.choices("abcdefgh", k=rng.randint(3, 8))) for _ in range(40)]
    upper = [w.upper() for w in words]
    assert align_tokens(words, upper).pairs == []
    # each output word is measured against its first candidate only, not all 40
    assert calls == [(w, words[0]) for w in upper]


def test_fuzzy_pairs_misspelled_token():
    al = align_tokens(["When", "Lison", "visits"], ["When", "Lisonn", "visits"])
    assert al.out_to_in() == {0: 0, 1: 1, 2: 2}
    kinds = {o: k for o, _, k in al.pairs}
    assert kinds[1] == "fuzzy"


def test_clean_is_identity_on_its_own_encoding():
    doc = make_sister_doc()
    src = doc.plain_text()
    for fmt in Format:
        wire = encode(doc.sentences, doc.mentions(), fmt, SISTER_IDMAP).render()
        out, diags = clean(src, wire, fmt)
        assert out.render() == wire
        assert diags == []


def test_clean_returns_input_tokens_exactly():
    src = "When Lison visits her sister , brings flowers."
    noisy = "When Lisonn <ent1> visits her her <ent1> sister <ent2> hallucinated"
    out, _ = clean(src, noisy, Format.HEADWORD)
    assert out.tokens == src.split()


def test_misspelled_head_keeps_its_tag():
    out, _ = clean("When Lison visits", "When Lisonn <ent1> visits",
                   Format.HEADWORD)
    assert [(ev.kind, ev.chain, ev.anchor) for ev in out.events] == [
        ("head", 1, 1)]


def test_looped_output_drops_duplicate_tags():
    out, diags = clean("a b", "a <ent1> b a <ent1> b a b", Format.HEADWORD)
    assert out.render() == "a <ent1> b"
    assert any("duplicate" in d.message for d in diags)


def test_deleted_token_reanchors_adjacent_tag():
    # the model dropped "sister"; its head tag lands on the previous token
    out, diags = clean("her sister smiled", "her <ent2> smiled",
                       Format.HEADWORD)
    assert out.tokens == ["her", "sister", "smiled"]
    assert [(ev.kind, ev.anchor) for ev in out.events] == [("head", 0)]


def test_close_without_open_is_dropped():
    out, diags = clean("a b c", "a b </ent> c", Format.MINIMAL)
    assert out.events == []
    assert diags


def test_line_structure_follows_input():
    src = "a b\nc d"
    out, _ = clean(src, "a b c d", Format.MINIMAL)
    assert out.breaks == (2,)
    assert out.render() == src


def test_spans_never_cross_after_cleaning():
    # shuffled opens/closes still come back as nested spans in slot order
    out, _ = clean("a b c d", "</ent> a <ent1> b <ent2> c </ent> d",
                   Format.MINIMAL)
    spans = [(ev.anchor, ev.end) for ev in out.events]
    assert spans == sorted(spans, key=lambda s: (s[0], -s[1]))
    for i, (s1, e1) in enumerate(spans):
        assert all(e2 <= e1 or s2 > e1 for s2, e2 in spans[i + 1:])


def test_span_crosses_cleaning_whole_or_not_at_all():
    # "man" is gone: the empty span of chain 2 is dropped in decoding, and
    # chain 1 keeps both its ends instead of taking the empty span's close
    out, diags = clean("the old man saw a dog near the red barn",
                       "<ent1> the old <ent2> </ent> saw </ent> a dog near the red barn",
                       "minimal")
    assert [(ev.kind, ev.chain, ev.anchor, ev.end) for ev in out.events] == [
        ("span", 1, 0, 3)]   # words 1 to 4
    assert [d.message for d in diags] == ["span without a token dropped"]


def test_span_that_loses_an_end_is_dropped():
    # the close follows two words that align with nothing
    out, diags = clean("a b c", "<ent1> a b c x y </ent>", "minimal")
    assert out.events == []
    assert [d.message for d in diags] == ["close tag lost its token; span dropped"]


@given(seed=st.integers(0, 5_000), fmt=st.sampled_from(list(Format)),
       noise=st.integers(0, 3))
def test_cleaned_tokens_always_equal_input(seed, fmt, noise):
    doc = random_document(f"d{seed}", SynthConfig(seed=seed))
    idmap = {cid: i for i, cid in enumerate(sorted(doc.chains))}
    wire = encode(doc.sentences, doc.mentions(), fmt, idmap).render()
    rng = random.Random(seed * 4 + noise)
    noisy = perturb(wire, rng, p_drop=0.05, p_dup=0.05, p_typo=0.08)
    src = doc.plain_text()
    out, _ = clean(src, noisy, fmt)
    assert out.tokens == src.split()
    assert out.breaks == tuple(
        b for b in _cum_lengths(doc) if 0 < b < len(out.tokens))


def _cum_lengths(doc):
    total, out = 0, []
    for s in doc.sentences[:-1]:
        total += len(s.tokens)
        out.append(total)
    return out
