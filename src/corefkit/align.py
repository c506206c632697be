"""Aligning noisy model output back onto the input it was asked to annotate.

Three stages:

  1. anchor_align: tokens unique in both sequences become candidate anchors;
     a longest strictly-increasing subsequence keeps them monotonic; the
     procedure recurses into the gaps with uniqueness recomputed locally.
  2. expand_and_fuzzy: anchors grow over runs of string-equal neighbours,
     then leftover gap tokens are paired greedily in order when their
     normalized character edit similarity clears a threshold.
  3. clean: decode the model output, align its tokens against the input,
     and project the tag events across. The returned token sequence is the
     input's, exactly; events that cannot be carried over are dropped with
     diagnostics.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .diag import Diagnostic
from .formats import CLOSE, OPEN, AnnotatedText, Format, TagEvent, decode

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
    if la == 0 or lb == 0:
        return 0.0
    prev = list(range(lb + 1))
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
    return 1.0 - prev[lb] / max(la, lb)


def similarity_bound(a: str, b: str, threshold: float, counts: dict[str, Counter]) -> float:
    """An upper bound on ``edit_similarity(a, b)``, cheaper than the distance.

    The distance is at least the length gap, and at least the longer length
    minus the characters the two share, counted with multiplicity. Each
    bound goes through ``edit_similarity``'s own expression, so it is never
    below the similarity, even in floating point. The length bound is
    returned alone when it already misses ``threshold``. ``counts`` caches
    each string's character counts.
    """
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    longest = max(la, lb)
    bound = 1.0 - abs(la - lb) / longest
    if bound < threshold:
        return bound
    ca = counts.get(a) or counts.setdefault(a, Counter(a))
    cb = counts.get(b) or counts.setdefault(b, Counter(b))
    shared = 0
    for c, n in ca.items():
        m = cb.get(c)
        if m:
            shared += n if n < m else m
    return 1.0 - (longest - shared) / longest


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
    pairs = [(i, seen_out[tok]) for tok, i in seen_in.items()
             if i >= 0 and seen_out.get(tok, -1) >= 0]
    pairs.sort()
    return pairs


def _lis_pairs(pairs):
    """Longest strictly increasing subsequence over the second coordinate
    (patience algorithm); input is sorted by the first coordinate."""
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
    if not tails_at:
        return []
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
    work = [(0, len(input_tokens), 0, len(output_tokens))]
    while work:
        ilo, ihi, olo, ohi = work.pop()
        if ilo >= ihi or olo >= ohi:
            continue
        kept = _lis_pairs(_unique_anchor_pairs(input_tokens, output_tokens,
                                               ilo, ihi, olo, ohi))
        if not kept:
            continue
        matched.extend(kept)
        prev_i, prev_o = ilo, olo
        for i, o in kept:
            work.append((prev_i, i, prev_o, o))
            prev_i, prev_o = i + 1, o + 1
        work.append((prev_i, ihi, prev_o, ohi))
    # monotonic, so ascending by input index is ascending by output index
    matched.sort()
    return Alignment([(o, i, ANCHOR) for i, o in matched])


def expand_and_fuzzy(al: Alignment, input_tokens: list[str], output_tokens: list[str],
                     fuzzy_threshold: float = 0.5) -> Alignment:
    """Grow anchor islands over equal neighbours, then pair leftover gap
    tokens greedily in order by edit similarity. The first candidate of
    an output token, usually its match, is measured at once; a later one
    whose ``similarity_bound`` misses the threshold is skipped unmeasured."""
    bounds = [(-1, -1)] + [(o, i) for o, i, _ in al.pairs] + [(len(output_tokens), len(input_tokens))]

    expanded: list[tuple[int, int, str]] = []
    gaps: list[tuple[int, int, int, int]] = []  # olo, ohi, ilo, ihi (exclusive)
    for (o1, i1), (o2, i2) in zip(bounds, bounds[1:]):
        lo_o, lo_i = o1 + 1, i1 + 1
        hi_o, hi_i = o2, i2
        while lo_o < hi_o and lo_i < hi_i and output_tokens[lo_o] == input_tokens[lo_i]:
            expanded.append((lo_o, lo_i, EXPANDED))
            lo_o += 1
            lo_i += 1
        while hi_o > lo_o and hi_i > lo_i and output_tokens[hi_o - 1] == input_tokens[hi_i - 1]:
            hi_o -= 1
            hi_i -= 1
            expanded.append((hi_o, hi_i, EXPANDED))
        gaps.append((lo_o, hi_o, lo_i, hi_i))

    fuzzy: list[tuple[int, int, str]] = []
    counts: dict[str, Counter] = {}
    for lo_o, hi_o, lo_i, hi_i in gaps:
        floor = lo_i
        for o in range(lo_o, hi_o):
            a = output_tokens[o]
            for i in range(floor, hi_i):
                b = input_tokens[i]
                if (i == floor or similarity_bound(a, b, fuzzy_threshold, counts) >= fuzzy_threshold) \
                        and edit_similarity(a, b) >= fuzzy_threshold:
                    fuzzy.append((o, i, FUZZY))
                    floor = i + 1
                    break

    return Alignment(sorted(al.pairs + expanded + fuzzy))


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
    stays ahead of it. Closes are re-paired by stack.
    """
    fmt = Format(fmt)
    input_tokens = input_text.split()
    breaks = []
    count = 0
    lines = [ln for ln in input_text.splitlines() if ln.split()]
    for ln in lines[:-1]:
        count += len(ln.split())
        breaks.append(count)

    decoded, diags = decode(model_output, fmt)
    mapping = align_tokens(input_tokens, decoded.tokens, fuzzy_threshold).out_to_in()

    placed: list[tuple[tuple[int, int], int, TagEvent]] = []
    seen: set[tuple[str, int | str | None]] = set()
    for seq, ev in enumerate(decoded.events):
        o = ev.anchor
        rescued = False
        if ev.kind == OPEN:
            if o in mapping:
                slot = (mapping[o], 0)
            elif o - 1 in mapping and mapping[o - 1] + 1 < len(input_tokens):
                slot = (mapping[o - 1] + 1, 0)
                rescued = True
            else:
                diags.append(Diagnostic("project", "open tag lost its token", o))
                continue
        else:
            if o in mapping:
                slot = (mapping[o], 1)
            elif o - 1 >= 0 and o - 1 in mapping:
                slot = (mapping[o - 1], 1)
                rescued = True
            elif o == -1:  # a zero ahead of the first token stays there
                slot = (-1, 1)
            else:
                diags.append(Diagnostic("project", f"{ev.kind} tag lost its token", o))
                continue
        if rescued and ev.kind != CLOSE:
            if (ev.kind, ev.chain) in seen:
                diags.append(Diagnostic(
                    "project", f"duplicate {ev.kind} tag for chain {ev.chain} dropped", o))
                continue
            diags.append(Diagnostic("project", f"{ev.kind} tag re-anchored", o))
        if ev.kind != CLOSE:
            seen.add((ev.kind, ev.chain))
        placed.append((slot, seq, ev))

    placed.sort(key=lambda p: (p[0], p[1]))
    events: list[TagEvent] = []
    depth = 0
    for slot, _, ev in placed:
        if ev.kind == CLOSE:
            if depth == 0:
                diags.append(Diagnostic("project", "unmatched close event dropped", slot[0]))
                continue
            depth -= 1
        elif ev.kind == OPEN:
            depth += 1
        events.append(TagEvent(ev.kind, ev.chain, slot[0]))

    return AnnotatedText(input_tokens, events, fmt, tuple(breaks)), diags
