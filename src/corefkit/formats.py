"""Inline plaintext annotation formats.

Four wire grammars over whitespace-delimited atoms:

  crac       tok|[e1] single-token, tok|[e1 open, tok|e1] close, ##|[e1] zero,
             comma-separated when one token carries several annotations
  explicit   <ent id=COREF_1> ... </ent>, zeros as <zero_ent id=COREF_1>
  minimal    <ent1> ... </ent>, zeros as <zero1>
  headword   a single <ent1> after each mention head, <zero1> after zero anchors

The tag formats' grammar lives in ``TAGS``, one template per event kind:
render fills the templates in, decode compiles them into one atom pattern
per format, and ``Layout``, the window walker's context, counts the atoms a
rendering would have, so it sizes a cut without rendering it.

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
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, count
from operator import attrgetter
from typing import Callable, Mapping, Sequence

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
    inside the text and nests with every other one. So event anchors never
    decrease, and ``breaks`` ascend; ``cut_at`` bisects on both.
    """

    tokens: list[str]
    events: list[TagEvent]
    fmt: Format
    breaks: Sequence[int] = ()  # a tuple, or a list the window walker extends

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
        if mentions:  # only a mention to place needs the index
            index_of.update(((si, t.position), i) for i, t in enumerate(s.tokens, len(tokens)))
        tokens.extend([t.form for t in s.tokens])

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
        out.append(TagEvent(ev.kind, idmap[ev.chain], ev.anchor, ev.end))
    return AnnotatedText(list(annotated.tokens), out, annotated.fmt, annotated.breaks)


def encode(sentences: Sequence[Sentence], mentions: Sequence[Mention],
           fmt: Format, idmap: Mapping[str, int]) -> AnnotatedText:
    """Wire-ready annotated text for a document slice (display ids applied)."""
    return apply_idmap(build_events(sentences, mentions, fmt), idmap)


# -- rendering ---------------------------------------------------------------

_anchor = attrgetter("anchor")


def cut_at(annotated: AnnotatedText, lo: int) -> tuple[int, int]:
    """Where the text from token ``lo`` on starts in ``annotated``: the
    index of its first event and of its first break.

    It keeps the events anchored at ``lo`` or later, so a span that
    straddles the cut and a tag on token ``lo - 1`` go, and a leading zero
    (anchor -1) stays only when ``lo`` is 0. It keeps the breaks above
    ``lo``: the text opens a line at the cut anyway, and a break there (one
    at 0 included) would only open it with an empty line. Anchors never
    decrease and breaks ascend (see :class:`AnnotatedText`), so both are
    found by bisection. ``slice_annotated`` and ``Layout.fill`` cut by
    it."""
    return (bisect_left(annotated.events, lo or -1, key=_anchor),
            bisect_right(annotated.breaks, lo))


def render(annotated: AnnotatedText,
           index: Callable[[int | str], int | str] | None = None) -> str:
    """Single-space joined atoms, a new line at each of ``breaks`` (at 0
    too: an empty first sentence), in any order; events anchored outside
    the text, but for leading ones at -1, render nothing. ``index(chain)``,
    when given, is called once per rendered event, in event order, and its
    result is shown in place of the chain id, so ``IdMap.assign`` numbers
    chains by first appearance as ``localize`` does. The text is laid out
    with a slot for each chain index (:func:`_lay_out`), and the slots
    filled in (:func:`_fill`)."""
    words = list(annotated.tokens)
    return _rendered(annotated.fmt, words, annotated.events, 0,
                     sorted({b for b in annotated.breaks if 0 <= b < len(words)}),
                     _shown(annotated.events, index))


def _shown(events: Sequence[TagEvent], index) -> list[str]:
    """What the slots of each event show: ``index(chain)``, called once per
    event in event order, or the chain itself."""
    if index is None:
        return [str(ev.chain) for ev in events]
    return [str(index(ev.chain)) for ev in events]


# Each atom with the slot character in place of its chain index; it stands
# for a slot while a text is laid out. Crac items join onto their token,
# each with the comma that follows it: one per single-token span, one per
# span that opens or closes on it.
_SLOT = "\x00"
_SINGLE = "single"
_SLOTTED: dict[Format, dict[str, str]] = {
    fmt: {kind: template.replace("{k}", _SLOT) for kind, template in tags.items()}
    for fmt, tags in TAGS.items()}
_SLOTTED[Format.CRAC] = {_SINGLE: f"[e{_SLOT}],", OPEN: f"[e{_SLOT},", CLOSE: f"e{_SLOT}],",
                         ZERO: f"##|[e{_SLOT}]"}
_plus_one = (1).__add__


def _lay_out(fmt: Format, words: list[str], events: Sequence[TagEvent], lo: int,
             lines: list[int], first: int = 0, follows: bool = False
             ) -> tuple[str, list[int], str, int]:
    """``words`` rendered with a slot for each chain index: the atoms of
    each event at ``anchor - lo``, those at -1 leading, none for one
    anchored outside the words, and a new line at each of ``lines``,
    ascending word indices (0: ahead of the first word). ``follows`` says
    that the text comes after other text, so it opens with a space (or the
    new line). ``words`` is rewritten in place.

    Returns the text, with a slot character that no word holds in place of
    each chain index; the events of its slots, in text order, counted from
    ``first``; the slot character; and where the first word starts."""
    n = len(words)
    atoms, slot = _SLOTTED[fmt], _SLOT
    if events and slot in "".join(words):  # a word holds it: take one none holds
        held = set("".join(words))
        slot = next(c for c in map(chr, count()) if c not in held)
        atoms = {kind: atom.replace(_SLOT, slot) for kind, atom in atoms.items()}
    after: dict[int, list[str]] = {}  # atoms behind word i (-1: leading)
    if not events:
        slots = []
    elif fmt is Format.CRAC:
        single: dict[int, list[int]] = {}
        opened: dict[int, list[int]] = {}
        closed: dict[int, list[int]] = {}
        zeros: dict[int, list[int]] = {}
        for j, ev in enumerate(events, first):
            if ev.kind == ZERO:
                after.setdefault(ev.anchor - lo, []).append(atoms[ZERO])
                zeros.setdefault(ev.anchor - lo, []).append(j)
            elif ev.kind == SPAN and ev.end == ev.anchor:
                single.setdefault(ev.anchor - lo, []).append(j)
            elif ev.kind == SPAN:
                opened.setdefault(ev.anchor - lo, []).append(j)
                # a token closes its innermost span first: the one visited last
                closed.setdefault(ev.end - lo, []).insert(0, j)
        # the items join onto their token, ahead of its zeros
        slots = zeros.pop(-1, [])
        for i in sorted(single.keys() | opened.keys() | closed.keys() | zeros.keys()):
            if 0 <= i < n:
                s, o, c = single.get(i, ()), opened.get(i, ()), closed.get(i, ())
                if s or o or c:
                    words[i] += ("|" + atoms[_SINGLE] * len(s) + atoms[OPEN] * len(o)
                                 + atoms[CLOSE] * len(c))[:-1]
                    slots += (*s, *o, *c)
                slots += zeros.get(i, ())
    else:
        before: dict[int, list[str]] = {}
        # each event has one slot: in event order while the places ascend
        place, unordered = -1, n + n
        for ev in events:
            i = ev.anchor - lo
            if ev.kind == SPAN:
                before.setdefault(i, []).append(atoms[OPEN])
                # spans ending at token i come before the events after it
                after.setdefault(ev.end - lo, []).append(atoms[CLOSE])
                place = i + i if place <= i + i else unordered
            else:
                after.setdefault(i, []).append(atoms[ev.kind])
                place = i + i + 1 if place <= i + i + 1 else unordered
        if place < unordered:
            slots = list(range(first, first + len(events)))
        else:  # out of order, or anchored outside the words: sorted by place
            places = sorted((2 * (ev.anchor - lo) + (ev.kind != SPAN), j)
                            for j, ev in enumerate(events, first))
            slots = [j for place, j in places if -1 <= place < unordered]
        for i, atoms_ahead in before.items():
            if 0 <= i < n:
                words[i] = " ".join(atoms_ahead) + " " + words[i]
    for i, atoms_behind in after.items():
        if 0 <= i < n:
            words[i] += " " + " ".join(atoms_behind)

    # the leading atoms open the first line
    lead = " ".join(after.get(-1, ()))
    if lead and follows:
        lead = " " + lead
    sep = body = ""
    if n:
        if lines and lines[0] == 0:
            sep, lines = "\n", lines[1:]
        elif lead or follows:
            sep = " "
        if lines:
            ends = lines + [n]
            body = "\n".join([" ".join(words[:ends[0]]),
                              *(" ".join(words[a:b]) for a, b in zip(lines, ends[1:]))])
        else:
            body = " ".join(words)
    return lead + sep + body, slots, slot, len(lead) + len(sep)


def _fill(runs: list[str], slots: Sequence[int], shown: Sequence[str], first: int) -> str:
    """``runs`` joined, slot ``k`` between ``runs[k]`` and ``runs[k + 1]``
    showing ``shown[slots[k] - first]``."""
    out: list[str | None] = [None] * (len(runs) + len(slots))
    out[::2] = runs
    out[1::2] = [shown[j - first] for j in slots]
    return "".join(out)


def _rendered(fmt: Format, words: list[str], events: Sequence[TagEvent], lo: int,
              lines: list[int], shown: Sequence[str], first: int = 0) -> str:
    """``words`` laid out by :func:`_lay_out` with the slots filled in."""
    text, slots, slot, _ = _lay_out(fmt, words, events, lo, lines, first)
    return _fill(text.split(slot), slots, shown, first) if slots else text


class Layout:
    """The window walker's context: the pieces appended so far, their atom
    counts and their rendering, kept together so that no prompt trims,
    localizes or renders the context again.

    ``annotated`` holds the pieces as one text, each after the first
    opening a line. With ``index`` an ``idmap.assign``, ``fill(lo, index)``
    is ``localize(slice_annotated(annotated, lo, n), idmap)[0].render()``,
    with Python work that follows the kept events, not the tokens and lines.

    A token is charged its own atoms, those of the zero and head events
    after it, and those of each span that opens on it; a crac form that is
    empty or ends in whitespace renders its ``|items`` as an atom of their
    own, charged to the latest span whose item it carries. Events at -1
    render ahead of the first token and are counted apart in ``lead``; a
    later piece's are charged to the token before it. So a suffix cut at
    token ``c`` renders ``prefix[n] - prefix[c]`` atoms.

    ``runs[k]`` is the text ahead of slot ``k``, which shows the chain of
    event ``slots[k]``; ``tail`` holds the text after the last slot, in
    pieces, copied once, when the next slot closes it. Offsets into the
    text count a slot as one character. Where tokens start is worked out
    only when a prompt is cut inside the text.
    """

    def __init__(self, fmt: Format):
        self.fmt = Format(fmt)
        self.annotated = AnnotatedText([], [], self.fmt, [])
        # atoms per event kind as its tags render; crac span items join onto their token
        tags = {OPEN: "", CLOSE: "", HEAD: "", **TAGS.get(self.fmt, {ZERO: "##|[e{k}]"})}
        self.atoms = {SPAN: len(f"{tags[OPEN]} {tags[CLOSE]}".split()),
                      HEAD: len(tags[HEAD].split()), ZERO: len(tags[ZERO].split())}
        self.lead = 0
        self.prefix = [0]  # prefix[i]: atoms charged to tokens [0, i)
        self.reach = [0]   # reach[j]: 1 + the last token of any span among events[:j]
        self.runs: list[str] = []
        self.slots: list[int] = []
        self.tail: list[str] = []
        self.size = 0             # the text's length
        self.run_starts = [0]     # where runs[k] starts, then where the tail does
        self.starts = array("q")  # where token i starts, once settled
        self.unsettled: list[tuple[int, list[str]]] = []  # (where, words) laid out since

    def extend(self, piece: AnnotatedText) -> None:
        """Append ``piece`` after the tokens so far: it opens a new line,
        and its events at -1 follow the last token before it. One walk over
        its events shifts them into ``annotated`` and charges them;
        ``_lay_out`` lays them out."""
        acc, offset, first = self.annotated, len(self.annotated.tokens), len(self.annotated.events)
        charged = [len(form.split()) for form in piece.tokens]
        carried: dict[int, int] = {}  # crac: token -> latest span whose item it carries
        lead, reach = 0, self.reach[-1]
        for ev in piece.events:
            if ev.end is not None:
                reach = max(reach, ev.end + offset + 1)
                if self.fmt is Format.CRAC:
                    # in slot order, the span visited last opened last
                    carried[ev.anchor] = carried[ev.end] = ev.anchor
            if ev.anchor < 0:
                lead += self.atoms[ev.kind]
            else:
                charged[ev.anchor] += self.atoms[ev.kind]
            self.reach.append(reach)
            acc.events.append(ev.shifted(offset))
        for token, opened in carried.items():
            form = piece.tokens[token]
            if not form or form[-1].isspace():
                charged[opened] += 1
        if offset:
            self.prefix[-1] += lead
            acc.breaks.append(offset)
        else:
            self.lead += lead
        self.prefix += accumulate(charged, initial=self.prefix.pop())
        acc.breaks += [b + offset for b in piece.breaks]
        acc.tokens += piece.tokens

        words = list(piece.tokens)
        lines = sorted({b for b in piece.breaks if 0 < b < len(words)})
        if offset:
            lines.insert(0, 0)
        text, slots, slot, start = _lay_out(self.fmt, words, piece.events, 0, lines, first,
                                            bool(offset or self.size))
        if words:
            self.unsettled.append((self.size + start, words))
        self.size += len(text)
        if not slots:
            self.tail.append(text)
            return
        runs = text.split(slot)
        self.tail.append(runs[0])
        runs[0] = "".join(self.tail)
        # a run, and the tail, starts one past the slot ahead of it
        self.run_starts[-1:] = accumulate(map(_plus_one, map(len, runs[:-1])),
                                          initial=self.run_starts[-1])
        self.runs += runs[:-1]
        self.tail[:] = runs[-1:]
        self.slots += slots

    def cut(self, budget: int) -> int:
        """The smallest cut whose suffix renders at most ``budget`` atoms,
        or the token count when there is none; renders nothing."""
        n = len(self.prefix) - 1
        total = self.prefix[n]
        if n == 0 or self.lead + total <= budget:
            return 0
        return bisect_left(self.prefix, total - budget, 1, n)

    def _join(self, shown: Sequence[str], first: int, at: int) -> str:
        """The text from offset ``at`` on, slots filled in as ``_fill``
        fills them."""
        r = bisect_right(self.run_starts, at) - 1  # len(runs): at is in the tail
        runs = [*self.runs[r:], "".join(self.tail)]
        runs[0] = runs[0][at - self.run_starts[r]:]
        return _fill(runs, self.slots[r:], shown, first)

    def fill(self, lo: int, index: Callable[[int | str], int | str] | None = None) -> str:
        """The context from token ``lo`` on, with its slots filled in: the
        events and breaks that :func:`cut_at` keeps, each event showing
        ``index(chain)``, called once per kept event in event order, or its
        chain.

        A span that straddles the cut has its close atom in the layout, so
        the tokens from ``lo`` to the first one past every such span are
        laid out anew, as ``render`` would lay out their slice."""
        annotated = self.annotated
        events, n = annotated.events, len(annotated.tokens)
        first, first_break = cut_at(annotated, lo)
        shown = _shown(events[first:], index)
        if lo == 0:
            return self._join(shown, first, 0)
        if lo >= n:
            return ""
        for where, words in self.unsettled:  # a word starts one past the word ahead of it
            self.starts.extend(accumulate(map(_plus_one, map(len, words[:-1])), initial=where))
        self.unsettled.clear()
        clear = max(lo, self.reach[first])  # the first token past every straddling span
        if clear == lo:
            return self._join(shown, first, self.starts[lo])
        breaks = annotated.breaks
        last_break = bisect_left(breaks, clear, first_break)
        head = _rendered(self.fmt, annotated.tokens[lo:clear],
                         events[first:bisect_left(events, clear, first, key=_anchor)], lo,
                         sorted({b - lo for b in breaks[first_break:last_break]}), shown, first)
        if clear == n:
            return head
        sep = "\n" if last_break < len(breaks) and breaks[last_break] == clear else " "
        return head + sep + self._join(shown, first, self.starts[clear])


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
_SPLIT = {fmt for fmt, tags in TAGS.items() if " " in "".join(tags.values())}  # two-atom tags
_CRAC_ITEM = re.compile(r"\[e(?P<single>\d+)\]|\[e(?P<open>\d+)|e(?P<close>\d+)\]")


class _Decoder:
    """Tokens and events of one wire text; the one place that pairs an open
    tag with its close ("last open, first closed").

    A span takes its place in ``events`` when it opens, so events come out
    in slot order, the outer of two spans that open together first. A close
    before any token closes nothing and uses up no open. A close right after
    its open drops the span, which holds no token. A span still open at the
    end closes at the last token.
    """

    def __init__(self, fmt: Format):
        self.fmt = fmt
        self.tokens: list[str] = []
        self.lead: list[TagEvent] = []  # zeros ahead of the first token
        self.events: list[TagEvent | None] = []  # None: the place of an open span
        self.diags: list[Diagnostic] = []
        self.stack: list[tuple[int, int, int]] = []  # (place, chain, anchor) per open span

    def open(self, chain: int):
        self.stack.append((len(self.events), chain, len(self.tokens)))
        self.events.append(None)

    def close(self, wire_chain: int | None = None):
        n = len(self.tokens)
        if not self.stack:
            self.diags.append(Diagnostic("decode", "unmatched close tag", n))
            return
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

    def tag(self, m: re.Match):
        """A tag that the atom pattern matched; one whose id has more digits
        than ``int`` reads is words instead, with a diagnostic."""
        kind = m.lastgroup
        try:
            chain = int(m[kind]) if kind != CLOSE else None
        except ValueError:
            self.diags.append(Diagnostic("decode", "tag id too long; read as text",
                                         len(self.tokens)))
            self.tokens += m[0].split()
            return
        if kind == OPEN:
            self.open(chain)
        elif kind == CLOSE:
            self.close()
        else:
            self.after_tag(kind, chain)

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
    items = [_CRAC_ITEM.fullmatch(item) for item in ann.split(",")] if sep and form else [None]
    try:
        parsed = [(m.lastgroup, int(m[m.lastgroup])) for m in items] if all(items) else None
    except ValueError:  # an id past int()'s digit limit: the atom is a word
        dec.diags.append(Diagnostic("decode", "tag id too long; read as text", len(dec.tokens)))
        parsed = None
    if parsed is None:
        dec.tokens.append(atom)
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
    dec.tokens.append(form)
    for k in reversed(singles):
        dec.close(k)
    for kind, k in parsed:
        if kind == "close":
            dec.close(k)


def decode(text: str, fmt: Format) -> tuple[AnnotatedText, list[Diagnostic]]:
    """Parse wire text tolerantly; never fails. Unparseable tag-like atoms
    become ordinary tokens (a tag with an id past ``int``'s digit limit with
    a diagnostic); a close with no open and a pair around no token are
    dropped with diagnostics, and an open never closed closes at the last
    token (see ``_Decoder``). Line boundaries come back as token breaks."""
    fmt = Format(fmt)
    dec = _Decoder(fmt)
    tokens = dec.tokens
    raw_breaks: list[int] = []
    if fmt in _SPLIT:
        # one walk over the whole text, so that a tag of two atoms may span lines
        text = "\n".join(text.splitlines())
        end = 0
        for m in _ATOMS[fmt].finditer(text):
            if text.find("\n", end, m.start()) >= 0:
                raw_breaks.append(len(tokens))
            end = m.end()
            if m.lastgroup:
                dec.tag(m)
            else:
                tokens.append(m[0])
    else:
        for line in text.splitlines():
            raw_breaks.append(len(tokens))
            if fmt is Format.CRAC:
                for atom in line.split():
                    _decode_crac_atom(dec, atom)
            else:
                for atom in line.split():
                    # each tag of these formats is one atom, opening with "<"
                    m = atom[0] == "<" and _ATOMS[fmt].fullmatch(atom)
                    if m and m.lastgroup:
                        dec.tag(m)
                    else:
                        tokens.append(atom)
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
