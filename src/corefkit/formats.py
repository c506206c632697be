"""Inline plaintext annotation formats.

Four wire grammars over whitespace-delimited atoms:

  crac       tok|[e1] single-token, tok|[e1 open, tok|e1] close, ##|[e1] zero,
             comma-separated when one token carries several annotations
  explicit   <ent id=COREF_1> ... </ent>, zeros as <zero_ent id=COREF_1>
  minimal    <ent1> ... </ent>, zeros as <zero1>
  headword   a single <ent1> after each mention head, <zero1> after zero anchors

The tag formats' grammar lives in ``TAGS``, one template per event kind:
render fills the templates in, and decode compiles them into one atom pattern
per format.

Open tags anchor before their token, everything else after. Close tags carry
no chain id in the event model; pairing is recovered by stack ("last open,
first closed"). Zero tags never close. Rendered text is single-space joined
atoms with one sentence per line.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .conllu import Mention, Sentence, mention_head
from .diag import Diagnostic

OPEN = "open"
CLOSE = "close"
HEAD = "head"
ZERO = "zero"


class Format(str, Enum):
    CRAC = "crac"
    EXPLICIT = "explicit"
    MINIMAL = "minimal"
    HEADWORD = "headword"


class FormatError(ValueError):
    pass


# ``{k}`` stands for the chain index; a space separates the two atoms of a tag
TAGS: dict[Format, dict[str, str]] = {
    Format.EXPLICIT: {OPEN: "<ent id=COREF_{k}>", CLOSE: "</ent>",
                      ZERO: "<zero_ent id=COREF_{k}>"},
    Format.MINIMAL: {OPEN: "<ent{k}>", CLOSE: "</ent>", ZERO: "<zero{k}>"},
    Format.HEADWORD: {HEAD: "<ent{k}>", ZERO: "<zero{k}>"},
}


@dataclass(frozen=True)
class TagEvent:
    """One annotation event. ``anchor`` is an output-token index; open events
    sit before their token, all others after. ``chain`` is a display index
    (int), a global chain id (str), or None for closes."""

    kind: str
    chain: int | str | None
    anchor: int

    def slot(self) -> tuple[int, int]:
        return (self.anchor, 0) if self.kind == OPEN else (self.anchor, 1)


@dataclass
class AnnotatedText:
    """A token sequence plus tag events; ``breaks`` are token indices that
    start a new rendered line (sentence boundaries)."""

    tokens: list[str]
    events: list[TagEvent]
    fmt: Format
    breaks: tuple[int, ...] = ()

    def render(self) -> str:
        return render(self)


# -- encoding ----------------------------------------------------------------

def _head_fragment(m: Mention) -> tuple[int, int]:
    for s, e in m.fragments:
        if s <= m.head[0] <= e:
            return (s, e)
    return m.fragments[0]


def build_events(sentences: Sequence[Sentence], mentions: Sequence[Mention],
                 fmt: Format) -> AnnotatedText:
    """Token stream plus events for a document slice; chain ids stay global.

    ``mentions[i].sent_index`` indexes into ``sentences``. Discontinuous
    mentions are reduced to the fragment containing the head. Crossing
    (non-nested) spans are rejected.
    """
    tokens: list[str] = []
    breaks: list[int] = []
    index_of: dict[tuple[int, int], int] = {}
    last_index: list[int] = []
    for si, s in enumerate(sentences):
        if si:
            breaks.append(len(tokens))
        for t in s.tokens:
            index_of[(si, t.position)] = len(tokens)
            tokens.append(t.form)
        last_index.append(len(tokens) - 1)

    spans = []  # (si, start, end, chain, head_pos, seq)
    zeros = []  # (si, anchor_pos, sub, chain)
    for seq, m in enumerate(mentions):
        if m.is_zero:
            zeros.append((m.sent_index, m.head[0], m.head[1], m.chain_id))
        else:
            s, e = _head_fragment(m)
            spans.append((m.sent_index, s, e, m.chain_id, m.head[0], seq))

    by_sent: dict[int, list] = {}
    for sp in spans:
        by_sent.setdefault(sp[0], []).append(sp)
    for group in by_sent.values():
        group.sort(key=lambda x: (x[1], -x[2]))
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if b[1] > a[2]:
                    break
                if b[2] > a[2]:
                    raise FormatError(
                        f"crossing mentions of chains {a[3]!r} and {b[3]!r} "
                        f"in sentence {a[0]}; normalize before encoding")

    events: list[tuple[tuple, TagEvent]] = []
    if fmt is Format.HEADWORD:
        for si, s, e, chain, head, seq in spans:
            i = index_of[(si, head)]
            events.append(((i, 1, 0, s, -e, seq), TagEvent(HEAD, chain, i)))
    else:
        for si, s, e, chain, head, seq in spans:
            io, ic = index_of[(si, s)], index_of[(si, e)]
            events.append(((io, 0, 0, -ic, 0, seq), TagEvent(OPEN, chain, io)))
            events.append(((ic, 1, 1, -io, 0, -seq), TagEvent(CLOSE, None, ic)))
    for si, anchor, sub, chain in sorted(zeros):
        if anchor >= 1:
            i = index_of[(si, anchor)]
        else:
            i = index_of[(si, 1)] - 1 if sentences[si].tokens else -1
        events.append(((i, 1, 2, 0, 0, sub), TagEvent(ZERO, chain, i)))

    events.sort(key=lambda pair: pair[0])
    return AnnotatedText(tokens, [ev for _, ev in events], fmt, tuple(breaks))


def apply_idmap(annotated: AnnotatedText, idmap: Mapping[str, int]) -> AnnotatedText:
    """Replace global chain ids with display indices; total over visible chains."""
    out = []
    for ev in annotated.events:
        if ev.chain is None or isinstance(ev.chain, int):
            out.append(ev)
            continue
        if ev.chain not in idmap:
            raise FormatError(f"chain {ev.chain!r} missing from idmap")
        out.append(replace(ev, chain=idmap[ev.chain]))
    return AnnotatedText(list(annotated.tokens), out, annotated.fmt, annotated.breaks)


def encode(sentences: Sequence[Sentence], mentions: Sequence[Mention],
           fmt: Format, idmap: Mapping[str, int]) -> AnnotatedText:
    """Wire-ready annotated text for a document slice (display ids applied)."""
    return apply_idmap(build_events(sentences, mentions, fmt), idmap)


# -- rendering ---------------------------------------------------------------

def _pair_events(events: Sequence[TagEvent]):
    """Stack-pair opens with closes; returns ({open_idx: close_idx}, {close_idx: open_idx})."""
    stack: list[int] = []
    open_to_close: dict[int, int] = {}
    close_to_open: dict[int, int] = {}
    for i, ev in enumerate(events):
        if ev.kind == OPEN:
            stack.append(i)
        elif ev.kind == CLOSE and stack:
            j = stack.pop()
            open_to_close[j] = i
            close_to_open[i] = j
    return open_to_close, close_to_open


def render(annotated: AnnotatedText) -> str:
    events = sorted(annotated.events, key=TagEvent.slot)
    breaks = set(annotated.breaks)
    before: dict[int, list[str]] = {}   # atoms ahead of token i
    suffix: dict[int, list[str]] = {}   # crac items joined onto token i
    after: dict[int, list[str]] = {}    # atoms behind token i (-1: leading)

    if annotated.fmt is Format.CRAC:
        o2c, c2o = _pair_events(events)
        ranked: dict[int, tuple[list[str], list[str], list[str]]] = {}
        for i, ev in enumerate(events):
            if ev.kind == ZERO:
                after.setdefault(ev.anchor, []).append(f"##|[e{ev.chain}]")
                continue
            if ev.kind == OPEN:
                single = i in o2c and events[o2c[i]].anchor == ev.anchor
                item, rank = (f"[e{ev.chain}]", 0) if single else (f"[e{ev.chain}", 1)
            elif ev.kind == CLOSE and i in c2o and events[c2o[i]].anchor != ev.anchor:
                item, rank = f"e{events[c2o[i]].chain}]", 2
            else:
                continue  # heads, unpaired closes, and closes of singletons
            ranked.setdefault(ev.anchor, ([], [], []))[rank].append(item)
        suffix = {i: s + o + c for i, (s, o, c) in ranked.items()}
    else:
        tags = {kind: template.format for kind, template in TAGS[annotated.fmt].items()}
        for ev in events:
            target = before if ev.kind == OPEN else after
            target.setdefault(ev.anchor, []).append(tags[ev.kind](k=ev.chain))

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


# -- decoding ----------------------------------------------------------------

def _atom_pattern(fmt: Format) -> re.Pattern:
    """One alternative per ``TAGS[fmt]`` entry, a group named after its event
    kind capturing the chain index (or the whole close tag), then any atom."""
    alternatives = []
    for kind, template in TAGS[fmt].items():
        head, k, tail = (re.escape(part) for part in template.partition("{k}"))
        tag = f"{head}(?P<{kind}>\\d+){tail}" if k else f"(?P<{kind}>{head})"
        # a tag is whole atoms; the gap inside one may be any whitespace
        alternatives.append(tag.replace(re.escape(" "), r"\s+") + r"(?!\S)")
    return re.compile("|".join(alternatives + [r"\S+"]))


_ATOMS = {fmt: _atom_pattern(fmt) for fmt in TAGS}
_CRAC_ITEM = re.compile(r"\[e(\d+)\]\Z|\[e(\d+)\Z|e(\d+)\]\Z")


class _Decoder:
    def __init__(self, fmt: Format):
        self.fmt = fmt
        self.tokens: list[str] = []
        self.events: list[TagEvent] = []
        self.diags: list[Diagnostic] = []
        self.stack: list[int | str] = []

    def open(self, chain: int):
        self.events.append(TagEvent(OPEN, chain, len(self.tokens)))
        self.stack.append(chain)

    def close(self, wire_chain: int | None = None):
        if not self.stack:
            self.diags.append(Diagnostic("decode", "unmatched close tag", len(self.tokens)))
            return
        opened = self.stack.pop()
        if not self.tokens:
            self.diags.append(Diagnostic("decode", "close tag before any token", 0))
            return
        if wire_chain is not None and wire_chain != opened:
            self.diags.append(Diagnostic(
                "decode", f"close tag id {wire_chain} does not match open id {opened}",
                len(self.tokens)))
        self.events.append(TagEvent(CLOSE, None, len(self.tokens) - 1))

    def after_tag(self, kind: str, chain: int):
        if not self.tokens:
            if kind == ZERO:
                # a zero may precede the whole text (anchor -1 renders leading)
                self.events.append(TagEvent(ZERO, chain, -1))
            else:
                self.diags.append(Diagnostic("decode", f"{kind} tag before any token", 0))
            return
        self.events.append(TagEvent(kind, chain, len(self.tokens) - 1))

    def token(self, form: str):
        self.tokens.append(form)

    def finish(self) -> tuple[AnnotatedText, list[Diagnostic]]:
        for _ in self.stack:
            self.diags.append(Diagnostic(
                "decode", "unclosed open tag at end of input", len(self.tokens)))
        kept = []
        for ev in self.events:
            if ev.kind == OPEN and ev.anchor >= len(self.tokens):
                self.diags.append(Diagnostic("decode", "open tag after last token", ev.anchor))
                continue
            kept.append(ev)
        # drop closes whose open was discarded (keep stack depth consistent)
        depth = 0
        final = []
        for ev in kept:
            if ev.kind == OPEN:
                depth += 1
            elif ev.kind == CLOSE:
                if depth == 0:
                    self.diags.append(Diagnostic("decode", "unmatched close tag", ev.anchor))
                    continue
                depth -= 1
            final.append(ev)
        return AnnotatedText(self.tokens, final, self.fmt), self.diags


def _decode_crac_atom(dec: _Decoder, atom: str) -> None:
    form, sep, ann = atom.rpartition("|")
    items = ann.split(",") if sep else None
    parsed = []
    if items and form:
        for item in items:
            m = _CRAC_ITEM.match(item)
            if not m or m.end() != len(item):
                parsed = None
                break
            single, op, cl = m.groups()
            if single is not None:
                parsed.append(("single", int(single)))
            elif op is not None:
                parsed.append(("open", int(op)))
            else:
                parsed.append(("close", int(cl)))
    else:
        parsed = None

    if parsed is None:
        dec.token(atom)
        return
    if form == "##":
        for kind, k in parsed:
            if kind == "single":
                dec.after_tag(ZERO, k)
            else:
                dec.diags.append(Diagnostic(
                    "decode", f"zero token carries non-singleton annotation e{k}",
                    len(dec.tokens)))
        return
    # continuing opens first, then singleton opens, so nesting is stack-consistent
    for kind, k in parsed:
        if kind == "open":
            dec.open(k)
    singles = [k for kind, k in parsed if kind == "single"]
    for k in singles:
        dec.open(k)
    dec.token(form)
    for k in reversed(singles):
        dec.close(k)
    for kind, k in parsed:
        if kind == "close":
            dec.close(k)


def decode(text: str, fmt: Format) -> tuple[AnnotatedText, list[Diagnostic]]:
    """Parse wire text tolerantly; never fails. Unparseable tag-like atoms
    become ordinary tokens; unmatched closes are dropped with diagnostics.
    Line boundaries come back as token breaks."""
    fmt = Format(fmt)
    dec = _Decoder(fmt)
    raw_breaks: list[int] = []
    if fmt is Format.CRAC:
        for line in text.splitlines():
            raw_breaks.append(len(dec.tokens))
            for atom in line.split():
                _decode_crac_atom(dec, atom)
    else:
        # one walk over the whole text, so that an explicit tag may span lines
        text = "\n".join(text.splitlines())
        end = 0
        for m in _ATOMS[fmt].finditer(text):
            if text.find("\n", end, m.start()) >= 0:
                raw_breaks.append(len(dec.tokens))
            end = m.end()
            kind = m.lastgroup
            if kind is None:
                dec.token(m[0])
            elif kind == OPEN:
                dec.open(int(m[kind]))
            elif kind == CLOSE:
                dec.close()
            else:
                dec.after_tag(kind, int(m[kind]))
    annotated, diags = dec.finish()
    annotated.breaks = tuple(sorted(
        {b for b in raw_breaks if 0 < b < len(annotated.tokens)}))
    return annotated, diags


# -- back to mentions ----------------------------------------------------------

def events_to_mentions(
    annotated: AnnotatedText,
    token_map: Sequence[tuple[int, int] | None],
    sentences: Sequence[Sentence],
) -> tuple[list[Mention], list[Diagnostic]]:
    """Turn an event stream over output tokens into document mentions.

    ``token_map[i]`` is the (sentence index, token position) of output token i,
    or None when it has no counterpart. Spans clip to the sentence of their
    first mapped token; unclosed opens auto-close at the last mapped token;
    events with no mapped anchor are dropped. Zero events become empty nodes
    (anchor, k) numbered in tag order per anchor.
    """
    diags: list[Diagnostic] = []
    mentions: list[Mention] = []
    stack: list[TagEvent] = []
    zero_counts: dict[tuple[int, int], int] = {}
    n = len(annotated.tokens)

    def mapped(i: int) -> tuple[int, int] | None:
        if 0 <= i < n and i < len(token_map):
            return token_map[i]
        return None

    def close_span(open_ev: TagEvent, end_anchor: int, auto: bool) -> None:
        lo, hi = open_ev.anchor, end_anchor
        if hi < lo:
            diags.append(Diagnostic("project", "span closed before it opened", hi))
            return
        start = next((mapped(i) for i in range(lo, hi + 1) if mapped(i)), None)
        if start is None:
            diags.append(Diagnostic("project", "span has no aligned tokens", lo))
            return
        si, p1 = start
        p2 = p1
        for i in range(lo, hi + 1):
            here = mapped(i)
            if here and here[0] == si:
                p2 = max(p2, here[1])
            elif here and here[0] != si:
                diags.append(Diagnostic(
                    "project", "span crosses a sentence boundary; clipped", i))
        if auto:
            diags.append(Diagnostic("project", "open tag auto-closed at last aligned token", lo))
        frag = ((min(p1, p2), max(p1, p2)),)
        head = mention_head(frag, sentences[si])
        mentions.append(Mention(str(open_ev.chain), si, frag, head))

    for ev in annotated.events:
        if ev.kind == OPEN:
            stack.append(ev)
        elif ev.kind == CLOSE:
            if not stack:
                diags.append(Diagnostic("project", "unmatched close event", ev.anchor))
                continue
            close_span(stack.pop(), ev.anchor, auto=False)
        elif ev.kind == HEAD:
            here = mapped(ev.anchor)
            if here is None:
                diags.append(Diagnostic("project", "head tag on unaligned token", ev.anchor))
                continue
            si, p = here
            mentions.append(Mention(str(ev.chain), si, ((p, p),), (p, 0)))
        elif ev.kind == ZERO:
            here = mapped(ev.anchor)
            if here is None and ev.anchor == -1:
                # leading zero: an empty node before the slice's first token
                first = next((token_map[i] for i in range(min(n, len(token_map)))
                              if token_map[i]), None)
                if first is not None:
                    here = (first[0], 0)
            if here is None:
                diags.append(Diagnostic("project", "zero tag on unaligned token", ev.anchor))
                continue
            si, p = here
            k = zero_counts.get((si, p), 0) + 1
            zero_counts[(si, p)] = k
            mentions.append(Mention(str(ev.chain), si, (), (p, k), True))

    last_mapped = next((i for i in range(n - 1, -1, -1) if mapped(i)), None)
    while stack:
        ev = stack.pop()
        if last_mapped is None or last_mapped < ev.anchor:
            diags.append(Diagnostic("project", "open tag spans no aligned tokens", ev.anchor))
            continue
        close_span(ev, last_mapped, auto=True)
    return mentions, diags
