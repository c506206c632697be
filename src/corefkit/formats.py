"""Inline plaintext annotation formats.

Four wire grammars over whitespace-delimited atoms:

  crac       tok|[e1] single-token, tok|[e1 open, tok|e1] close, ##|[e1] zero,
             comma-separated when one token carries several annotations
  explicit   <ent id=COREF_1> ... </ent>, zeros as <zero_ent id=COREF_1>
  minimal    <ent1> ... </ent>, zeros as <zero1>
  headword   a single <ent1> after each mention head, <zero1> after zero anchors

The tag formats' grammar lives in ``TAGS``, one template per event kind:
render fills the templates in, decode compiles them into one atom pattern
per format, and ``AtomCounts`` counts the atoms a rendering would have, so
context trimming can size a cut without rendering it.

Open tags anchor before their token, everything else after. Close tags carry
no chain id in the event model; pairing is recovered by stack ("last open,
first closed"). Zero tags never close. Rendered text is single-space joined
atoms with one sentence per line.
"""
from __future__ import annotations

import re
from bisect import bisect_left
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
    for si, s in enumerate(sentences):
        if si:
            breaks.append(len(tokens))
        for t in s.tokens:
            index_of[(si, t.position)] = len(tokens)
            tokens.append(t.form)

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
                    where = sentences[a[0]].sent_id or a[0] + 1  # its id, or its 1-based place
                    raise FormatError(
                        f"crossing mentions of chains {a[3]!r} and {b[3]!r} "
                        f"in sentence {where!r}; normalize before encoding")

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

def _pair_events(events: Sequence[TagEvent]) -> dict[int, int]:
    """Stack-pair opens with closes ("last open, first closed") in events
    sorted by slot; maps the index of each paired event to its mate's."""
    stack: list[int] = []
    mate: dict[int, int] = {}
    for i, ev in enumerate(events):
        if ev.kind == OPEN:
            stack.append(i)
        elif ev.kind == CLOSE and stack:
            j = stack.pop()
            mate[i], mate[j] = j, i
    return mate


def render(annotated: AnnotatedText) -> str:
    events = sorted(annotated.events, key=TagEvent.slot)
    breaks = set(annotated.breaks)
    before: dict[int, list[str]] = {}   # atoms ahead of token i
    suffix: dict[int, list[str]] = {}   # crac items joined onto token i
    after: dict[int, list[str]] = {}    # atoms behind token i (-1: leading)

    if annotated.fmt is Format.CRAC:
        mate = _pair_events(events)
        ranked: dict[int, tuple[list[str], list[str], list[str]]] = {}
        for i, ev in enumerate(events):
            if ev.kind == ZERO:
                after.setdefault(ev.anchor, []).append(f"##|[e{ev.chain}]")
                continue
            if ev.kind == OPEN:
                single = i in mate and events[mate[i]].anchor == ev.anchor
                item, rank = (f"[e{ev.chain}]", 0) if single else (f"[e{ev.chain}", 1)
            elif ev.kind == CLOSE and i in mate and events[mate[i]].anchor != ev.anchor:
                item, rank = f"e{events[mate[i]].chain}]", 2
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


# rendered atoms per event kind: one or two per tag template, one per crac
# zero (``##|[eK]``); crac open, close and head items join onto their token
_ATOM_COUNTS: dict[Format, dict[str, int]] = {
    fmt: {kind: len(template.split()) for kind, template in tags.items()}
    for fmt, tags in TAGS.items()}
_ATOM_COUNTS[Format.CRAC] = {OPEN: 0, CLOSE: 0, HEAD: 0, ZERO: 1}


class AtomCounts:
    """Rendered atoms of a growing :class:`AnnotatedText`, charged to tokens.

    A token is charged its own atoms, those of the zero and head events
    after it, and those of each open/close pair that opens on it. Pairs are
    found by :func:`_pair_events`, as ``render`` finds them; an unpaired
    event renders nothing. A crac form that is empty or ends in whitespace
    renders its ``|items`` as an atom of their own when it carries any; that
    atom is charged to the latest open whose item the form carries. Events
    anchored at -1 render ahead of the first token and are counted apart in
    ``lead``. So a suffix cut at token ``c`` renders the atoms charged from
    ``c`` on, which ``prefix`` gives as a difference.

    The counts are exact for every suffix ``slice_annotated`` cuts from a
    text made of pieces that each pair up within themselves (as
    ``pipeline._append`` makes them), rendered with display chain indices
    as ``localize`` gives them.
    """

    def __init__(self, fmt: Format):
        self.fmt = Format(fmt)
        self.atoms = _ATOM_COUNTS[self.fmt]
        self.lead = 0
        self.prefix = [0]  # prefix[i]: atoms charged to tokens [0, i)

    def extend(self, piece: AnnotatedText) -> None:
        """Count ``piece`` as appended after the tokens counted so far; its
        pairs are found within the piece. Its events at -1 are charged to
        the last token before it."""
        n = len(piece.tokens)
        charged = [len(form.split()) for form in piece.tokens]
        carried: dict[int, int] = {}  # crac: token -> latest open whose item it carries
        lead = 0
        events = sorted(piece.events, key=TagEvent.slot)
        mate = _pair_events(events)
        for i, ev in enumerate(events):
            if ev.kind == OPEN or ev.kind == CLOSE and i not in mate:
                continue
            anchor, atoms = ev.anchor, self.atoms[ev.kind]
            if ev.kind == CLOSE:
                anchor = events[mate[i]].anchor
                if anchor < 0 or ev.anchor >= n:
                    continue  # a pair not inside the text never renders
                atoms += self.atoms[OPEN]
                if self.fmt is Format.CRAC:
                    for token in (anchor, ev.anchor):
                        carried[token] = max(carried.get(token, anchor), anchor)
            if 0 <= anchor < n:
                charged[anchor] += atoms
            elif anchor == -1:
                lead += atoms
        for token, opened in carried.items():
            form = piece.tokens[token]
            if not form or form[-1].isspace():
                charged[opened] += 1
        if len(self.prefix) > 1:
            self.prefix[-1] += lead
        else:
            self.lead += lead
        for atoms in charged:
            self.prefix.append(self.prefix[-1] + atoms)

    def cut(self, budget: int) -> int:
        """The smallest cut whose counted suffix is at most ``budget`` atoms,
        or the token count when there is none."""
        n = len(self.prefix) - 1
        total = self.prefix[n]
        if n == 0 or self.lead + total <= budget:
            return 0
        return bisect_left(self.prefix, total - budget, 1, n)


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
    token_map: Sequence[tuple[int, int]],
    sentences: Sequence[Sentence],
) -> tuple[list[Mention], list[Diagnostic]]:
    """Turn an event stream over output tokens into document mentions.

    ``token_map[i]`` is the (sentence index, token position) of output token
    i, given for every token. A span clips to the sentence of its first
    token; an open never closed closes at the last token. Zero events become empty
    nodes (anchor, k) numbered in tag order per anchor; a zero ahead of the
    first token (anchor -1) is the node at position 0 of its sentence.
    """
    diags: list[Diagnostic] = []
    mentions: list[Mention] = []
    stack: list[TagEvent] = []
    zero_counts: dict[tuple[int, int], int] = {}

    def close_span(open_ev: TagEvent, hi: int, auto: bool) -> None:
        lo = open_ev.anchor
        if hi < lo:
            diags.append(Diagnostic("project", "span closed before it opened", hi))
            return
        si, start = token_map[lo]
        end = start
        for i in range(lo + 1, hi + 1):
            if token_map[i][0] == si:
                end = max(end, token_map[i][1])
            else:
                diags.append(Diagnostic(
                    "project", "span crosses a sentence boundary; clipped", i))
        if auto:
            diags.append(Diagnostic("project", "open tag auto-closed at last aligned token", lo))
        frag = ((start, end),)
        mentions.append(Mention(str(open_ev.chain), si, frag,
                                mention_head(frag, sentences[si])))

    for ev in annotated.events:
        if ev.kind == OPEN:
            stack.append(ev)
        elif ev.kind == CLOSE:
            if not stack:
                diags.append(Diagnostic("project", "unmatched close event", ev.anchor))
                continue
            close_span(stack.pop(), ev.anchor, auto=False)
        elif ev.kind == HEAD:
            si, p = token_map[ev.anchor]
            mentions.append(Mention(str(ev.chain), si, ((p, p),), (p, 0)))
        elif ev.kind == ZERO:
            if ev.anchor >= 0:
                si, p = token_map[ev.anchor]
            elif token_map:
                si, p = token_map[0][0], 0
            else:
                diags.append(Diagnostic("project", "zero tag in a text without tokens", -1))
                continue
            k = zero_counts.get((si, p), 0) + 1
            zero_counts[(si, p)] = k
            mentions.append(Mention(str(ev.chain), si, (), (p, k), True))

    while stack:
        close_span(stack.pop(), len(annotated.tokens) - 1, auto=True)
    return mentions, diags
