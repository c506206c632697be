"""Aligning noisy model output back onto the input it was asked to annotate.

Three stages:

  1. anchor_align: tokens unique in both sequences become candidate anchors;
     a longest strictly-increasing subsequence keeps them monotonic; the
     procedure recurses into the gaps with uniqueness recomputed locally.
     A gap with one token on a side takes no such pass: that token anchors
     exactly where it occurs once on the other side.
  2. expand_and_fuzzy: anchors grow over runs of string-equal neighbours,
     then leftover gap tokens are paired greedily in order when their
     normalized character edit similarity clears a threshold. A candidate
     whose lengths or shared characters bound it below is not measured.
  3. clean: decode the model output (a word that does not open like a tag
     is read without the tag pattern), align its tokens against the input,
     and project the tag events across, each span whole. An output whose
     tokens equal the input's maps each token to itself without aligning.
     The returned token sequence is the input's, exactly; events that
     cannot be carried over are dropped with diagnostics.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .diag import Diagnostic
from .formats import OPEN, SPAN, AnnotatedText, Format, TagEvent, decode

ANCHOR = "anchor"
EXPANDED = "expanded"
FUZZY = "fuzzy"


@dataclass
class Alignment:
    """Monotonic partial injection from output tokens to input tokens."""

    pairs: list[tuple[int, int, str]]  # (output_index, input_index, kind), ascending

    def out_to_in(self) -> dict[int, int]:
        return {o: i for o, i, _ in self.pairs}


def edit_similarity(a: str, b: str) -> float:
    """1 - levenshtein(a, b) / max(len); 1.0 for equal strings."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    longest = max(la, lb)
    # the distance is that of what lies between the ends the two share
    start = 0
    while start < la and start < lb and a[start] == b[start]:
        start += 1
    end = 0
    while end < la - start and end < lb - start and a[la - 1 - end] == b[lb - 1 - end]:
        end += 1
    a, b = a[start:la - end], b[start:lb - end]
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        left = i
        cur = [i]
        for cb, diag, up in zip(b, prev, prev[1:]):
            # neighbouring cells differ by at most 1, so a character that
            # matches always takes the diagonal
            if ca != cb:
                if up < diag:
                    diag = up
                if left < diag:
                    diag = left
                diag += 1
            left = diag
            cur.append(left)
        prev = cur
    return 1.0 - prev[-1] / longest


def _code(word: str, slots: dict[tuple[str, int], int]) -> int:
    """``word``'s characters as bits, one per (character, occurrence) pair,
    numbered in ``slots``; two words share as many characters, counted with
    multiplicity, as their codes share bits."""
    code, seen = 0, {}
    for c in word:
        k = seen[c] = seen.get(c, -1) + 1
        code |= 1 << (slots.get((c, k)) or slots.setdefault((c, k), len(slots) + 1))
    return code


def similarity_bound(a: str, b: str, threshold: float, slots: dict[tuple[str, int], int]) -> float:
    """An upper bound on ``edit_similarity(a, b)``, cheaper than the distance,
    which ``expand_and_fuzzy`` computes inline.

    The distance is at least the length gap, and at least the longer length
    minus the characters the two share (the bits their ``_code``s share).
    Each bound goes through ``edit_similarity``'s own expression, so it is
    never below the similarity, even in floating point. The length bound is
    returned alone when it already misses ``threshold``.
    """
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    longest = max(la, lb)
    bound = 1.0 - abs(la - lb) / longest
    if bound < threshold:
        return bound
    return 1.0 - (longest - (_code(a, slots) & _code(b, slots)).bit_count()) / longest


def _unique_anchor_pairs(inp, out, ilo, ihi, olo, ohi):
    """(in_idx, out_idx) for tokens occurring exactly once in both ranges."""
    seen_in: dict[str, int] = {}
    for i in range(ilo, ihi):
        tok = inp[i]
        seen_in[tok] = -1 if tok in seen_in else i
    seen_out: dict[str, int] = {}
    for o in range(olo, ohi):
        tok = out[o]
        seen_out[tok] = -1 if tok in seen_out else o
    # in input order: a unique token's first occurrence is its only one
    return [(i, seen_out[tok]) for tok, i in seen_in.items()
            if i >= 0 and seen_out.get(tok, -1) >= 0]


def _lis_pairs(pairs):
    """Longest strictly increasing subsequence over the second coordinate
    (patience algorithm); input is sorted by the first coordinate."""
    if all(p[1] < q[1] for p, q in zip(pairs, pairs[1:])):
        return pairs  # already increasing, as it mostly is
    tails: list[int] = []   # out-index of the smallest tail per length
    tails_at: list[int] = []
    back: list[int] = [-1] * len(pairs)
    for idx, (_, o) in enumerate(pairs):
        k = bisect_left(tails, o)
        if k == len(tails):
            tails.append(o)
            tails_at.append(idx)
        else:
            tails[k] = o
            tails_at[k] = idx
        back[idx] = tails_at[k - 1] if k else -1
    out = []
    idx = tails_at[-1]
    while idx != -1:
        out.append(pairs[idx])
        idx = back[idx]
    out.reverse()
    return out


def anchor_align(input_tokens: list[str], output_tokens: list[str]) -> Alignment:
    """Hierarchical unique-token anchoring (monotonic in both coordinates)."""
    matched: list[tuple[int, int]] = []  # (in_idx, out_idx)
    work = [(0, len(input_tokens), 0, len(output_tokens))] if input_tokens and output_tokens else []
    while work:
        ilo, ihi, olo, ohi = work.pop()
        if ihi - ilo == 1 or ohi - olo == 1:
            # a side of one token: it anchors where it occurs once on the other
            if ihi - ilo == 1 and output_tokens[olo:ohi].count(input_tokens[ilo]) == 1:
                matched.append((ilo, output_tokens.index(input_tokens[ilo], olo, ohi)))
            elif ohi - olo == 1 and input_tokens[ilo:ihi].count(output_tokens[olo]) == 1:
                matched.append((input_tokens.index(output_tokens[olo], ilo, ihi), olo))
            continue
        kept = _lis_pairs(_unique_anchor_pairs(input_tokens, output_tokens,
                                               ilo, ihi, olo, ohi))
        if not kept:
            continue
        matched.extend(kept)
        prev_i, prev_o = ilo, olo
        for i, o in kept + [(ihi, ohi)]:
            if prev_i < i and prev_o < o:
                work.append((prev_i, i, prev_o, o))
            prev_i, prev_o = i + 1, o + 1
    # monotonic, so ascending by input index is ascending by output index
    matched.sort()
    return Alignment([(o, i, ANCHOR) for i, o in matched])


def expand_and_fuzzy(al: Alignment, input_tokens: list[str], output_tokens: list[str],
                     fuzzy_threshold: float = 0.5) -> Alignment:
    """Grow anchor islands over equal neighbours, then pair leftover gap
    tokens greedily in order by edit similarity. The first candidate of
    an output token, usually its match, is measured at once; a later one
    whose ``similarity_bound`` misses the threshold is skipped unmeasured."""
    anchors = [(-1, -1, ANCHOR), *al.pairs, (len(output_tokens), len(input_tokens), ANCHOR)]
    expanded: list[tuple[int, int, str]] = []
    fuzzy: list[tuple[int, int, str]] = []
    for (o1, i1, _), (hi_o, hi_i, _) in zip(anchors, anchors[1:]):
        lo_o, lo_i = o1 + 1, i1 + 1
        if lo_o == hi_o or lo_i == hi_i:
            continue  # no gap, or one with nothing to pair
        while lo_o < hi_o and lo_i < hi_i and output_tokens[lo_o] == input_tokens[lo_i]:
            expanded.append((lo_o, lo_i, EXPANDED))
            lo_o += 1
            lo_i += 1
        while hi_o > lo_o and hi_i > lo_i and output_tokens[hi_o - 1] == input_tokens[hi_i - 1]:
            hi_o -= 1
            hi_i -= 1
            expanded.append((hi_o, hi_i, EXPANDED))
        # ``similarity_bound`` inline, on the gap's input codes made once
        slots: dict[tuple[str, int], int] = {}
        codes = [_code(t, slots) for t in input_tokens[lo_i:hi_i]] if hi_i - lo_i > 1 else ()
        floor = lo_i
        for o, a in enumerate(output_tokens[lo_o:hi_o], lo_o):
            la, code = len(a), 0
            for i in range(floor, hi_i):
                b = input_tokens[i]
                if i > floor and la:
                    lb = len(b)
                    longest = la if la > lb else lb
                    if 1.0 - abs(la - lb) / longest < fuzzy_threshold:
                        continue
                    code = code or _code(a, slots)
                    if 1.0 - (longest - (code & codes[i - lo_i]).bit_count()) / longest \
                            < fuzzy_threshold:
                        continue
                if edit_similarity(a, b) >= fuzzy_threshold:
                    fuzzy.append((o, i, FUZZY))
                    floor = i + 1
                    break

    return Alignment(sorted(al.pairs + expanded + fuzzy) if expanded or fuzzy else al.pairs)


def align_tokens(input_tokens: list[str], output_tokens: list[str],
                 fuzzy_threshold: float = 0.5) -> Alignment:
    return expand_and_fuzzy(anchor_align(input_tokens, output_tokens),
                            input_tokens, output_tokens, fuzzy_threshold)


def clean(input_text: str, model_output: str, fmt: Format | str,
          fuzzy_threshold: float = 0.5) -> tuple[AnnotatedText, list[Diagnostic]]:
    """Project the tags of ``model_output`` onto ``input_text``'s own tokens.

    The result's token sequence equals ``input_text.split()`` exactly; its
    line structure follows the input. Tags whose token disappeared are
    re-anchored to the preceding aligned token when adjacent, unless that
    re-anchor merely duplicates an event already carried over (looped
    output); otherwise they are dropped. A zero ahead of the first token
    stays ahead of it. A span crosses whole, its first token placed as an
    open tag and its last as a close tag, or is dropped with one diagnostic;
    the alignment is monotonic, so the spans kept still nest.
    """
    fmt = Format(fmt)
    input_tokens = input_text.split()
    # where each line with a token, but the last, ends
    breaks = list(accumulate(filter(None, map(len, map(str.split, input_text.splitlines())))))[:-1]

    decoded, diags = decode(model_output, fmt)
    n = len(input_tokens)
    if decoded.tokens == input_tokens:
        # what anchoring and expansion give on equal sequences, unaligned
        mapping = {i: i for i in range(n)}
    else:
        mapping = align_tokens(input_tokens, decoded.tokens, fuzzy_threshold).out_to_in()

    events: list[TagEvent] = []
    seen: set[tuple[str, int | str]] = set()
    for ev in decoded.events:
        o, end, tag = ev.anchor, None, ev.kind
        rescued = o not in mapping and o - 1 in mapping
        if ev.kind == SPAN:
            # its open tag goes ahead of its token, or else of the one after
            # the token before; its close tag behind its token, or else
            # behind the token before
            tag = OPEN
            start = mapping[o - 1] + 1 if rescued else mapping.get(o, n)
            end = mapping.get(ev.end, mapping.get(ev.end - 1, -1))
            lost = ("open tag lost its token" if start == n else
                    "close tag lost its token" if end < 0 else
                    "span ends cross after alignment" if end < start else None)
            if lost:
                diags.append(Diagnostic("project", f"{lost}; span dropped", o))
                continue
        else:
            # behind its token, or else the token before; a zero ahead of
            # the first token stays there
            start = mapping[o - 1] if rescued else mapping.get(o, -1 if o == -1 else None)
            if start is None:
                diags.append(Diagnostic("project", f"{tag} tag lost its token", o))
                continue
        if rescued:
            if (ev.kind, ev.chain) in seen:
                diags.append(Diagnostic(
                    "project", f"duplicate {tag} tag for chain {ev.chain} dropped", o))
                continue
            diags.append(Diagnostic("project", f"{tag} tag re-anchored", o))
        seen.add((ev.kind, ev.chain))
        events.append(TagEvent(ev.kind, ev.chain, start, end))

    # an open re-anchors ahead of the next token and other tags behind the
    # previous one, so a span can fall behind a tag that followed it
    events.sort(key=TagEvent.slot)
    return AnnotatedText(input_tokens, events, fmt, tuple(breaks)), diags
