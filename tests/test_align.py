"""Repairing noisy model output: anchoring, fuzzy matching, tag projection."""
import bisect
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from corefkit import align
from corefkit.align import (align_tokens, anchor_align, clean, edit_similarity,
                            similarity_bound)
from corefkit.conllu import Mention
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
    src = "\n".join(" ".join(t.form for t in s.tokens) for s in doc.sentences)
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
    src = "\n".join(" ".join(t.form for t in s.tokens) for s in doc.sentences)
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


class _Unequal(list):
    """Decoded tokens that compare unequal to everything, so ``clean``
    aligns them even when they equal its input."""

    def __eq__(self, other):
        return False

    __hash__ = None


# a tag ahead of the first token: decoded with a diagnostic, no token
_STRAY = {Format.CRAC: "##|[e1", Format.EXPLICIT: "</ent>",
          Format.MINIMAL: "</ent>", Format.HEADWORD: "<ent1>"}


def _exact_case(seed, fmt):
    """Input text and a completion whose tokens equal its own: a random
    document's encoding with a zero ahead of its first token, after a tag
    that decodes to a diagnostic."""
    doc = random_document("d", SynthConfig(seed=seed, p_zero=0.3, p_discontinuous=0.1))
    idmap = {cid: i for i, cid in enumerate(sorted(doc.chains))}
    mentions = [Mention(min(idmap), 0, (), (0, 1), True), *doc.mentions()]
    source = encode(doc.sentences, (), fmt, {}).render()
    wire = encode(doc.sentences, mentions, fmt, idmap).render()
    return source, _STRAY[fmt] + " " + wire


@pytest.mark.parametrize("fmt", list(Format))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_completion_is_not_aligned(monkeypatch, seed, fmt):
    source, wire = _exact_case(seed, fmt)
    real_decode = align.decode

    def decode_unequal(text, fmt):
        decoded, diags = real_decode(text, fmt)
        decoded.tokens = _Unequal(decoded.tokens)
        return decoded, diags

    monkeypatch.setattr(align, "decode", decode_unequal)
    aligned, aligned_diags = clean(source, wire, fmt)  # through align_tokens
    monkeypatch.setattr(align, "decode", real_decode)

    def refuse(*args, **kwargs):
        raise AssertionError("an exact completion was aligned")

    monkeypatch.setattr(align, "align_tokens", refuse)
    cleaned, diags = clean(source, wire, fmt)
    assert (cleaned, diags) == (aligned, aligned_diags)
    assert diags and cleaned.events


@pytest.mark.parametrize("fmt", list(Format))
def test_one_token_off_completion_is_aligned(monkeypatch, fmt):
    source, wire = _exact_case(0, fmt)
    source = "x" + source  # its first token no longer matches the completion's
    calls = []
    real_align = align.align_tokens
    monkeypatch.setattr(align, "align_tokens",
                        lambda *args: calls.append(args) or real_align(*args))
    cleaned, _ = clean(source, wire, fmt)
    assert len(calls) == 1
    assert cleaned.tokens == source.split() and cleaned.events


# -- differential oracle -------------------------------------------------------
# A frozen copy of the aligner as it stood before small gaps and per-gap
# character codes: the dict-and-LIS pass on every gap and a Counter-based
# bound. A change that alters alignment on purpose updates this copy and
# says so.

def _oracle_unique_pairs(inp, out, ilo, ihi, olo, ohi):
    seen_in, seen_out = {}, {}
    for i in range(ilo, ihi):
        seen_in[inp[i]] = -1 if inp[i] in seen_in else i
    for o in range(olo, ohi):
        seen_out[out[o]] = -1 if out[o] in seen_out else o
    return sorted((i, seen_out[tok]) for tok, i in seen_in.items()
                  if i >= 0 and seen_out.get(tok, -1) >= 0)


def _oracle_lis(pairs):
    tails, tails_at, back = [], [], [-1] * len(pairs)
    for idx, (_, o) in enumerate(pairs):
        k = bisect.bisect_left(tails, o)
        if k == len(tails):
            tails.append(o)
            tails_at.append(idx)
        else:
            tails[k] = o
            tails_at[k] = idx
        back[idx] = tails_at[k - 1] if k else -1
    out, idx = [], tails_at[-1] if tails_at else -1
    while idx != -1:
        out.append(pairs[idx])
        idx = back[idx]
    return out[::-1]


def _oracle_bound(a, b, threshold, counts):
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    longest = max(la, lb)
    bound = 1.0 - abs(la - lb) / longest
    if bound < threshold:
        return bound
    ca = counts.setdefault(a, Counter(a))
    cb = counts.setdefault(b, Counter(b))
    shared = sum(min(n, cb[c]) for c, n in ca.items())
    return 1.0 - (longest - shared) / longest


def _oracle_align(inp, out, threshold=0.5):
    matched, work = [], [(0, len(inp), 0, len(out))]
    while work:
        ilo, ihi, olo, ohi = work.pop()
        if ilo >= ihi or olo >= ohi:
            continue
        kept = _oracle_lis(_oracle_unique_pairs(inp, out, ilo, ihi, olo, ohi))
        if not kept:
            continue
        matched.extend(kept)
        prev_i, prev_o = ilo, olo
        for i, o in kept:
            work.append((prev_i, i, prev_o, o))
            prev_i, prev_o = i + 1, o + 1
        work.append((prev_i, ihi, prev_o, ohi))
    anchors = [(o, i, "anchor") for i, o in sorted(matched)]
    bounds = [(-1, -1)] + [(o, i) for o, i, _ in anchors] + [(len(out), len(inp))]
    expanded, gaps = [], []
    for (o1, i1), (o2, i2) in zip(bounds, bounds[1:]):
        lo_o, lo_i, hi_o, hi_i = o1 + 1, i1 + 1, o2, i2
        while lo_o < hi_o and lo_i < hi_i and out[lo_o] == inp[lo_i]:
            expanded.append((lo_o, lo_i, "expanded"))
            lo_o += 1
            lo_i += 1
        while hi_o > lo_o and hi_i > lo_i and out[hi_o - 1] == inp[hi_i - 1]:
            hi_o -= 1
            hi_i -= 1
            expanded.append((hi_o, hi_i, "expanded"))
        gaps.append((lo_o, hi_o, lo_i, hi_i))
    fuzzy, counts = [], {}
    for lo_o, hi_o, lo_i, hi_i in gaps:
        floor = lo_i
        for o in range(lo_o, hi_o):
            for i in range(floor, hi_i):
                if (i == floor or _oracle_bound(out[o], inp[i], threshold, counts) >= threshold) \
                        and _textbook_similarity(out[o], inp[i]) >= threshold:
                    fuzzy.append((o, i, "fuzzy"))
                    floor = i + 1
                    break
    return sorted(anchors + expanded + fuzzy)


@st.composite
def _perturbed(draw):
    """A synth document's words and a ``perturb``ed copy of them, over
    synth's small vocabulary, where a word repeats often."""
    doc = random_document("d", SynthConfig(seed=draw(st.integers(0, 10_000)),
                                           sentences=draw(st.sampled_from([(3, 8), (20, 30)]))))
    words = [t.form for s in doc.sentences for t in s.tokens]
    rate = draw(st.sampled_from([0.03, 0.1, 0.3]))
    out = perturb(" ".join(words), random.Random(draw(st.integers(0, 10_000))), rate, rate, rate)
    return words, out.split()


_word = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=9)


@st.composite
def _off_target(draw):
    """Words and a completion whose words are none of them."""
    words = draw(st.lists(_word, max_size=40))
    return words, draw(st.lists(_word.filter(lambda w: w not in words), max_size=40))


@st.composite
def _small_alphabet(draw):
    """Token lists over 3 to 5 letters: gaps of one token on a side abound."""
    letters = st.sampled_from("abcde"[:draw(st.integers(3, 5))])
    return draw(st.lists(letters, max_size=30)), draw(st.lists(letters, max_size=30))


@given(case=st.one_of(_perturbed(), _off_target(), _small_alphabet()),
       threshold=st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))
@settings(max_examples=300)
def test_alignment_equals_the_frozen_oracle(case, threshold):
    inp, out = case
    assert align_tokens(inp, out, threshold).pairs == _oracle_align(inp, out, threshold)

