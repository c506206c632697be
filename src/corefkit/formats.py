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

From the wire reader on, a mention span is one event, ``SPAN`` with its
first and last token: ``_Decoder`` is the one place that pairs an open tag
with its close ("last open, first closed"), so ``OPEN`` and ``CLOSE`` name
wire tags only. A span's open tag renders before its first token and its
close tag after its last; head and zero tags render after their token.
Zero tags never close. Rendered text is single-space joined atoms with one
sentence per line.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .conllu import Mention, Sentence, mention_head
from .diag import Diagnostic

OPEN = "open"    # wire tags only
CLOSE = "close"
SPAN = "span"
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
    """One annotation event over output-token indices. A ``SPAN`` covers
    tokens ``anchor`` to ``end``, both included, and takes the slot before
    ``anchor``; a head or zero event has no ``end`` and sits after token
    ``anchor`` (a zero at -1: ahead of the first token). ``chain`` is a
    display index (int) or a global chain id (str)."""

    kind: str
    chain: int | str
    anchor: int
    end: int | None = None

    def slot(self) -> tuple[int, int]:
        return (self.anchor, 0) if self.kind == SPAN else (self.anchor, 1)

    def shifted(self, by: int) -> TagEvent:
        """The same event ``by`` tokens later."""
        return TagEvent(self.kind, self.chain, self.anchor + by,
                        None if self.end is None else self.end + by)


@dataclass
class AnnotatedText:
    """A token sequence plus tag events; ``breaks`` are token indices that
    start a new rendered line (sentence boundaries).

    Its producers (``build_events``, ``decode``, ``clean``) keep one
    invariant that its consumers rely on: ``events`` are in slot order, of
    two spans that start together the outer first, and every span lies
    inside the text and nests with every other one.
    """

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
            events.append(((io, 0, 0, -ic, 0, seq), TagEvent(SPAN, chain, io, ic)))
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
        if isinstance(ev.chain, int):
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

def render(annotated: AnnotatedText) -> str:
    breaks = set(annotated.breaks)
    before: dict[int, list[str]] = {}   # atoms ahead of token i
    suffix: dict[int, list[str]] = {}   # crac items joined onto token i
    after: dict[int, list[str]] = {}    # atoms behind token i (-1: leading)

    if annotated.fmt is Format.CRAC:
        ranked: dict[int, tuple[list[str], list[str], list[str]]] = {}
        for ev in annotated.events:
            if ev.kind == ZERO:
                after.setdefault(ev.anchor, []).append(f"##|[e{ev.chain}]")
            elif ev.kind == SPAN and ev.end == ev.anchor:
                ranked.setdefault(ev.anchor, ([], [], []))[0].append(f"[e{ev.chain}]")
            elif ev.kind == SPAN:
                ranked.setdefault(ev.anchor, ([], [], []))[1].append(f"[e{ev.chain}")
                ranked.setdefault(ev.end, ([], [], []))[2].append(f"e{ev.chain}]")
        # a token closes its innermost span first: the one visited last
        suffix = {i: s + o + c[::-1] for i, (s, o, c) in ranked.items()}
    else:
        tags = {kind: template.format for kind, template in TAGS[annotated.fmt].items()}
        for ev in annotated.events:
            if ev.kind == SPAN:
                before.setdefault(ev.anchor, []).append(tags[OPEN](k=ev.chain))
                # spans ending at token i come before the events after it
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


# rendered atoms per event kind: one or two per tag template, a span's open
# and close together; one per crac zero (``##|[eK]``), while crac span and
# head items join onto their token
_ATOM_COUNTS: dict[Format, dict[str, int]] = {
    fmt: {kind: len(template.split()) for kind, template in tags.items()}
    for fmt, tags in TAGS.items()}
for _atoms in _ATOM_COUNTS.values():
    _atoms[SPAN] = _atoms.pop(OPEN, 0) + _atoms.pop(CLOSE, 0)
_ATOM_COUNTS[Format.CRAC] = {SPAN: 0, HEAD: 0, ZERO: 1}


class AtomCounts:
    """Rendered atoms of a growing :class:`AnnotatedText`, charged to tokens.

    A token is charged its own atoms, those of the zero and head events
    after it, and those of each span that opens on it. A crac form that is
    empty or ends in whitespace renders its ``|items`` as an atom of their
    own when it carries any; that atom is charged to the latest span whose
    item the form carries. Events anchored at -1 render ahead of the first
    token and are counted apart in ``lead``. So a suffix cut at token ``c``
    renders the atoms charged from ``c`` on, which ``prefix`` gives as a
    difference.

    The counts are exact for every suffix ``slice_annotated`` cuts, rendered
    with display chain indices as ``localize`` gives them.
    """

    def __init__(self, fmt: Format):
        self.fmt = Format(fmt)
        self.atoms = _ATOM_COUNTS[self.fmt]
        self.lead = 0
        self.prefix = [0]  # prefix[i]: atoms charged to tokens [0, i)

    def extend(self, piece: AnnotatedText) -> None:
        """Count ``piece`` as appended after the tokens counted so far. Its
        events at -1 are charged to the last token before it."""
        charged = [len(form.split()) for form in piece.tokens]
        carried: dict[int, int] = {}  # crac: token -> latest span whose item it carries
        lead = 0
        for ev in piece.events:
            if ev.kind == SPAN and self.fmt is Format.CRAC:
                # in slot order, the span visited last opened last
                carried[ev.anchor] = carried[ev.end] = ev.anchor
            if ev.anchor < 0:
                lead += self.atoms[ev.kind]
            else:
                charged[ev.anchor] += self.atoms[ev.kind]
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
    """Tokens and events of one wire text; the one place that pairs an open
    tag with its close ("last open, first closed").

    A span takes its place in ``events`` when it opens, so events come out
    in slot order, the outer of two spans that open together first. A close
    before any token closes nothing, yet it uses up one open: the closes
    after it may close one open fewer. A close right after its open drops
    the span, which holds no token. A span still open at the end closes at
    the last token.
    """

    def __init__(self, fmt: Format):
        self.fmt = fmt
        self.tokens: list[str] = []
        self.lead: list[TagEvent] = []  # zeros ahead of the first token
        self.events: list[TagEvent | None] = []  # None: the place of an open span
        self.diags: list[Diagnostic] = []
        self.stack: list[tuple[int, int, int]] = []  # (place, chain, anchor) per open span
        self.closable = 0  # how many spans of the stack a close may still close

    def open(self, chain: int):
        self.stack.append((len(self.events), chain, len(self.tokens)))
        self.events.append(None)
        self.closable += 1

    def close(self, wire_chain: int | None = None):
        n = len(self.tokens)
        if not self.closable:
            self.diags.append(Diagnostic("decode", "unmatched close tag", n))
            return
        self.closable -= 1
        if not n:
            self.diags.append(Diagnostic("decode", "close tag before any token", 0))
            return
        place, chain, anchor = self.stack.pop()
        if wire_chain is not None and wire_chain != chain:
            self.diags.append(Diagnostic(
                "decode", f"close tag id {wire_chain} does not match open id {chain}", n))
        if anchor == n:
            self.diags.append(Diagnostic("decode", "span without a token dropped", n))
        else:
            self.events[place] = TagEvent(SPAN, chain, anchor, n - 1)

    def after_tag(self, kind: str, chain: int):
        if not self.tokens:
            if kind == ZERO:
                # a zero may precede the whole text (anchor -1 renders leading)
                self.lead.append(TagEvent(ZERO, chain, -1))
            else:
                self.diags.append(Diagnostic("decode", f"{kind} tag before any token", 0))
            return
        self.events.append(TagEvent(kind, chain, len(self.tokens) - 1))

    def token(self, form: str):
        self.tokens.append(form)

    def finish(self) -> tuple[AnnotatedText, list[Diagnostic]]:
        last = len(self.tokens) - 1
        for place, chain, anchor in self.stack:
            if anchor > last:
                self.diags.append(Diagnostic("decode", "open tag after last token", anchor))
            else:
                self.diags.append(Diagnostic(
                    "decode", "unclosed open tag closed at last token", anchor))
                self.events[place] = TagEvent(SPAN, chain, anchor, last)
        events = self.lead + [ev for ev in self.events if ev is not None]
        return AnnotatedText(self.tokens, events, self.fmt), self.diags


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
    become ordinary tokens; a close with no open and a pair around no token
    are dropped with diagnostics, and an open never closed closes at the
    last token (see ``_Decoder``). Line boundaries come back as token
    breaks."""
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
    token. Zero events become empty nodes (anchor, k) numbered in tag order
    per anchor; a zero ahead of the first token (anchor -1) is the node at
    position 0 of its sentence.
    """
    diags: list[Diagnostic] = []
    mentions: list[Mention] = []
    zero_counts: dict[tuple[int, int], int] = {}
    for ev in annotated.events:
        if ev.kind == SPAN:
            si, start = token_map[ev.anchor]
            end = start
            for i in range(ev.anchor + 1, ev.end + 1):
                if token_map[i][0] == si:
                    end = max(end, token_map[i][1])
                else:
                    diags.append(Diagnostic(
                        "project", "span crosses a sentence boundary; clipped", i))
            frag = ((start, end),)
            mentions.append(Mention(str(ev.chain), si, frag, mention_head(frag, sentences[si])))
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
    return mentions, diags
