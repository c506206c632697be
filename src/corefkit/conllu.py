"""CorefUD-flavoured CoNLL-U reading and writing.

Object model: Corpus > Document > Sentence > Token, plus per-document
coreference chains made of Mentions. Coreference lives in the MISC column
as ``Entity=`` attributes using bracket notation:

    (eid-...     opens a mention (dash-fields may carry a head index),
    eid)         closes the most recent open mention of that eid,
    (eid-...)    is a single-token mention.

Discontinuous mentions use ``eid[i/n]`` part markers. Empty nodes (decimal
IDs such as ``7.1``) carry zero mentions; they emit no surface word.
Multiword-token ranges (``3-4``) are kept as opaque lines and never bear
mentions. Unknown dash-fields and MISC attributes round-trip verbatim, and
the regenerated ``Entity=`` goes back where it was read.

Comment lines before the first ``# newdoc id`` are a file preamble (a CoNLL-U
Plus ``# global.columns`` line, a licence note) and are skipped; a token line
there is an error. Where the reader has to approximate (a bracket on an empty
node, an empty node governed by an elided one) it adds a line to
``Document.warnings``; the CLI prints each on stderr as ``warning: PATH: ...``.
"""
from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from operator import attrgetter


class ConlluError(ValueError):
    """Malformed CoNLL-U input or an unserializable document."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(slots=True)
class Token:
    """One surface token or empty node.

    ``position`` is the 1-based surface index; for empty nodes it is the
    index of the surface token the node follows (0 = sentence start) and
    ``sub_index`` is the k of the ``position.k`` decimal ID. ``misc`` holds
    the MISC attributes in order, an ``Entity=`` value reduced to
    ``("Entity", "")``: mentions live in the document's chains.

    Tokens are shared, not copied: a prediction document holds the gold
    document's sentences and so its tokens. Treat a read token as frozen.
    """

    position: int
    form: str
    dep_head: int = 0
    is_zero: bool = False
    sub_index: int = 0
    lemma: str = "_"
    upos: str = "_"
    xpos: str = "_"
    feats: str = "_"
    deprel: str = "_"
    deps: str = "_"
    misc: tuple[tuple[str, str | None], ...] = ()

    @property
    def tid(self) -> str:
        if self.is_zero:
            return f"{self.position}.{self.sub_index}"
        return str(self.position)


@dataclass(frozen=True, slots=True)
class Mention:
    """One mention of a chain, confined to a single sentence.

    ``fragments`` are inclusive (start, end) surface-token ranges, ordered
    and non-overlapping; empty for zero mentions. ``head`` is (position,
    sub_index) of the head token; for zero mentions it names the empty node
    itself. ``raw_fields`` preserves unknown Entity dash-fields verbatim.
    """

    chain_id: str
    sent_index: int
    fragments: tuple[tuple[int, int], ...]
    head: tuple[int, int]
    is_zero: bool = False
    raw_fields: str | None = None

    def span_tokens(self) -> list[int]:
        out: list[int] = []
        for s, e in self.fragments:
            out.extend(range(s, e + 1))
        return out

    def __reduce__(self):
        # pickled as one constructor call: the frozen dataclass default sets
        # each field through a Python-level loop, which doubles the load time
        return Mention, _mention_args(self)


_mention_args = attrgetter(*(f.name for f in dataclass_fields(Mention)))  # all of them, in order

@dataclass
class Chain:
    chain_id: str
    mentions: list[Mention] = field(default_factory=list)

    @property
    def is_singleton(self) -> bool:
        return len(self.mentions) == 1

    def sort(self) -> None:
        self.mentions.sort(
            key=lambda m: (m.sent_index, m.head[0], m.head[1],
                           m.fragments[0][0] if m.fragments else m.head[0])
        )


@dataclass
class Sentence:
    sent_id: str
    tokens: list[Token]
    empty_nodes: list[Token] = field(default_factory=list)
    text: str | None = None
    comments: list[str] = field(default_factory=list)
    mwt_lines: dict[int, str] = field(default_factory=dict)


@dataclass
class Document:
    doc_id: str
    sentences: list[Sentence] = field(default_factory=list)
    chains: dict[str, Chain] = field(default_factory=dict)
    meta: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list, compare=False)

    def mentions(self) -> list[Mention]:
        out = [m for c in self.chains.values() for m in c.mentions]
        out.sort(key=lambda m: (m.sent_index, m.head[0], m.head[1]))
        return out

    def sentence_starts(self) -> list[int]:
        """The document-wide index of each sentence's first surface token,
        then the total token count."""
        starts = [0]
        for s in self.sentences:
            starts.append(starts[-1] + len(s.tokens))
        return starts

    def surface_token_count(self) -> int:
        return sum(len(s.tokens) for s in self.sentences)


@dataclass
class Corpus:
    """Datasets in order; each dataset is (dataset_id, documents)."""

    datasets: list[tuple[str, list[Document]]] = field(default_factory=list)


def mention_head(fragments: tuple[tuple[int, int], ...], sentence: Sentence) -> tuple[int, int]:
    """Head fallback: the unique token whose governor lies outside the span.

    Leftmost wins on ties; if every token's governor is internal the
    leftmost span token is returned, so the fallback always yields a token.
    """
    positions = [p for s, e in fragments for p in range(s, e + 1)]
    inside = set(positions)
    by_pos = {t.position: t for t in sentence.tokens}
    for p in positions:
        tok = by_pos.get(p)
        if tok is not None and tok.dep_head not in inside:
            return (p, 0)
    return (positions[0], 0)


def mentions_to_document(doc: Document, mentions: list[Mention]) -> Document:
    """A prediction document over ``doc``'s sentences; duplicates are kept.
    Each zero mention gets its empty node: a sentence that lacks one is
    copied with the node added, so ``doc``'s own sentences never change."""
    chains: dict[str, Chain] = {}
    sentences = list(doc.sentences)
    for m in mentions:
        chains.setdefault(m.chain_id, Chain(m.chain_id)).mentions.append(m)
        sent = sentences[m.sent_index]
        if m.is_zero and all((t.position, t.sub_index) != m.head for t in sent.empty_nodes):
            nodes = [*sent.empty_nodes, Token(m.head[0], "_", 0, True, m.head[1])]
            sentences[m.sent_index] = replace(
                sent, empty_nodes=sorted(nodes, key=lambda t: (t.position, t.sub_index)))
    for c in chains.values():
        c.sort()
    return Document(doc.doc_id, sentences, chains, list(doc.meta))


# -- Entity attribute grammar ------------------------------------------------

# one bracket of an Entity= value: "(" body [")"] opens a mention (or is a
# whole single-token mention), and any text not starting with "(" up to the
# next ")" closes one
_BRACKET = re.compile(r"\(([^()]+)(\)?)|(?!\()([^)]*)\)")


def _split_eid(raw: str) -> tuple[str, int, int]:
    """Split an eid like ``e9[2/3]`` into (eid, part, nparts); plain eids are part 1/1."""
    if raw.endswith("]") and "[" in raw:
        base, _, tail = raw[:-1].partition("[")
        a, _, b = tail.partition("/")
        if a.isdecimal() and b.isdecimal():
            return base, int(a), int(b)
    return raw, 1, 1


def parse_entity_value(value: str, line: int | None = None):
    """Scan an Entity= value into (kind, eid, part, nparts, fields) events.

    kind is "open", "close" or "single"; fields is the raw dash-field tail
    (None when absent). Events are returned in string order.
    """
    events = []
    i = 0
    while i < len(value):
        m = _BRACKET.match(value, i)
        if m is None:
            if value[i] == "(":
                raise ConlluError(f"empty Entity bracket in {value!r}", line)
            raise ConlluError(f"unbalanced Entity value {value!r}", line)
        body, closed, close = m.groups()
        if close is not None:
            events.append(("close", *_split_eid(close), None))
        else:
            eid_raw, _, fields = body.partition("-")
            events.append(("single" if closed else "open", *_split_eid(eid_raw),
                           fields or None))
        i = m.end()
    return events


def _head_index(fields: str | None) -> int | None:
    """The first all-digit dash-field is the 1-based head index within the mention."""
    if not fields:
        return None
    for piece in fields.split("-"):
        if piece.isdecimal():
            return int(piece)
    return None


def _canonical_fields(fields: str | None) -> str | None:
    """A pure head-index field is regenerated on write, so keep it implicit."""
    if fields is not None and fields.isdecimal():
        return None
    return fields


# -- parsing -----------------------------------------------------------------

# stands in a token's MISC where its Entity= value was parsed, so the value
# written back goes there; a token without one gets it first
_ENTITY_SLOT = ("Entity", "")


def _parse_misc(raw: str, line: int) -> tuple[tuple[tuple[str, str | None], ...], list | None]:
    """The pairs of a MISC column other than ``_`` in order, its ``Entity=``
    value (the last one wins) replaced by ``_ENTITY_SLOT``, and that value's
    bracket events (None without one)."""
    pairs = []
    entity_raw = None
    for item in raw.split("|"):
        k, eq, v = item.partition("=")
        if not eq:
            pairs.append((item, None))
        elif k == "Entity":
            entity_raw = v
            if _ENTITY_SLOT not in pairs:
                pairs.append(_ENTITY_SLOT)
        else:
            pairs.append((k, v))
    return tuple(pairs), parse_entity_value(entity_raw, line) if entity_raw else None


def _misc_string(pairs, entity: str | None) -> str:
    if entity and _ENTITY_SLOT not in pairs:
        pairs = (_ENTITY_SLOT, *pairs)
    items = [f"Entity={entity}" if (k, v) == _ENTITY_SLOT else k if v is None else f"{k}={v}"
             for k, v in pairs if entity or (k, v) != _ENTITY_SLOT]
    return "|".join(items) if items else "_"


def _add_sentence(doc: Document, sent: Sentence, fault: ConlluError | None, gap: int | None,
                  mwt_ranges, elided: list[str], entity_events) -> None:
    """Raise the sentence's first held fault, else append it to ``doc`` and
    its mentions to ``doc.chains``."""
    if fault is not None:
        raise fault
    if gap is not None:
        raise ConlluError(f"sentence {sent.sent_id!r}: token positions not contiguous at {gap}")
    ntok = len(sent.tokens)
    # a range is written before its first word, so both ends must be words
    for line_no, first, last in mwt_ranges:
        if not (0 < first <= ntok and 0 < last <= ntok):
            raise ConlluError(f"multiword token {first}-{last} covers words "
                              f"its sentence does not have", line_no)
    seen_sub: dict[int, int] = {}
    for t in sent.empty_nodes:
        if not (0 <= t.position <= ntok):
            raise ConlluError(
                f"sentence {sent.sent_id!r}: empty node {t.tid} anchored outside sentence")
        if t.sub_index < 1 or seen_sub.get(t.position, 0) >= t.sub_index:
            raise ConlluError(
                f"sentence {sent.sent_id!r}: empty node IDs at anchor {t.position} not increasing")
        seen_sub[t.position] = t.sub_index
    doc.warnings.extend(f"{sent.sent_id or doc.doc_id}: {w}" for w in elided)
    if entity_events:
        _assemble_mentions(entity_events, sent, len(doc.sentences), doc)
    doc.sentences.append(sent)


def _assemble_mentions(entity_events, sent: Sentence, sent_index: int, doc: Document) -> None:
    """File the mentions of one sentence's ``Entity=`` brackets in ``doc.chains``."""
    ntok = len(sent.tokens)
    chains = doc.chains
    open_stack: list[tuple] = []  # (eid, part, nparts, fields, start)
    # several discontinuous mentions of one chain may be in flight at once;
    # parts arrive in order, part i+1 joining the oldest instance expecting it.
    # An instance is (nparts, ((start, end, fields), ...)).
    pending: dict[str, list[tuple]] = {}
    for (pos, sub), events in entity_events:
        for kind, eid, part, nparts, fields in events:
            if kind == "single" and sub:  # a zero mention: the empty node itself
                m = Mention(eid, sent_index, (), (pos, sub), True, _canonical_fields(fields))
            else:
                if sub:
                    # an open on an empty node goes to the next token, a close
                    # to the node's anchor (not before the mention's start)
                    doc.warnings.append(f"{doc.doc_id}/{sent.sent_id}: mention bracket on empty "
                                        f"node {pos}.{sub} approximated to surface span")
                if kind == "open":
                    start = min(pos + 1, ntok) if sub else pos
                    open_stack.append((eid, part, nparts, fields, start))
                    continue
                if kind == "single":
                    start = end = pos
                else:  # close: the latest open of its eid and part, by index, not by value
                    i = next((i for i in reversed(range(len(open_stack)))
                              if open_stack[i][0] == eid and open_stack[i][1] == part), None)
                    if i is None:
                        raise ConlluError(
                            f"document {doc.doc_id!r}: unbalanced Entity bracket for chain {eid!r} "
                            f"(close without open in sentence {sent.sent_id!r})")
                    _, _, nparts, fields, start = open_stack.pop(i)
                    end = max(pos, start) if sub else pos
                # a finished bracket; the last part of a mention completes it
                if nparts == 1:
                    frags = ((start, end),)
                    span = range(start, end + 1)
                else:
                    instances = pending.setdefault(eid, [])
                    if part == 1:
                        instances.append((nparts, ((start, end, fields),)))
                        continue
                    i = next((i for i, (n, done) in enumerate(instances)
                              if n == nparts and len(done) + 1 == part), None)
                    if i is None:
                        raise ConlluError(
                            f"document {doc.doc_id!r}: part {part}/{nparts} of chain {eid!r} "
                            f"has no preceding part {part - 1} in sentence {sent.sent_id!r}")
                    parts = instances[i][1] + ((start, end, fields),)
                    if len(parts) != nparts:
                        instances[i] = (nparts, parts)
                        continue
                    del instances[i]
                    if not instances:
                        del pending[eid]
                    frags = tuple((s, e) for s, e, _ in parts)
                    fields = parts[0][2]
                    span = [p for s, e in frags for p in range(s, e + 1)]
                if not span:
                    raise ConlluError(
                        f"document {doc.doc_id!r}: mention of chain {eid!r} covers no token "
                        f"in sentence {sent.sent_id!r}")
                h = _head_index(fields)
                head = (span[h - 1], 0) if h and h <= len(span) else mention_head(frags, sent)
                m = Mention(eid, sent_index, frags, head, False, _canonical_fields(fields))
            chain = chains.get(eid)
            if chain is None:
                chain = chains[eid] = Chain(eid)
            chain.mentions.append(m)

    if open_stack:
        raise ConlluError(
            f"document {doc.doc_id!r}: unbalanced Entity bracket for chain "
            f"{open_stack[-1][0]!r} (unclosed at end of sentence {sent.sent_id!r})")
    if pending:
        raise ConlluError(
            f"document {doc.doc_id!r}: discontinuous mention of chain {next(iter(pending))!r} "
            f"not completed within sentence {sent.sent_id!r}")


def is_doc_header(comment: str) -> bool:
    """Whether a comment (its text after ``#``, stripped) opens a document;
    the reader and ``workers._deal`` both ask this."""
    return comment.startswith("newdoc id")


def iter_conllu(lines: Iterable[str]) -> Iterator[Document]:
    """Read CoNLL-U lines (as ``str.splitlines`` gives them, numbered from 1)
    and yield each ``# newdoc id`` document once the next header or the end
    arrives, so a reader holds one document at a time.

    Each token line becomes its ``Token`` as it is read. A fault of one line
    on its own (its column count, a bad id, a multiword range that ends
    before it starts or shares a word with an earlier one) is raised as that
    line is read, so before any fault of its sentence. The rest wait for the
    sentence to end and are raised in this order: a sentence before any
    header, a duplicate ``sent_id``, the first row that governs itself or
    holds a malformed ``Entity=`` value, the first gap in the token
    positions, a multiword range past the last word, an empty node anchored
    outside the sentence or out of order, and then the mention brackets.
    """
    doc: Document | None = None
    sent_ids: set[str] = set()
    # the sentence being read: its comments, rows and held faults
    sent_id, text, comments, mwt_lines, mwt_ranges = "", None, [], {}, []
    tokens, empties, entity_events, elided, fault, gap = [], [], [], [], None, None
    # each line is a comment ("#"), a token line or a sentence break (blank);
    # the blank line and the header appended to the input close its last
    # sentence and its last document
    for line_no, line in enumerate(itertools.chain(lines, ("", "# newdoc id")), start=1):
        if line[:1] == "#":
            body = line[1:].strip()
            if not is_doc_header(body):
                if doc is None:
                    continue  # file preamble, e.g. "# global.columns = ..."
                if not (doc.sentences or tokens or empties or mwt_ranges or sent_id or comments
                        or text is not None or body.startswith(("sent_id", "text ", "text="))):
                    # document-level header block (e.g. "# global.Entity = ...")
                    doc.meta.append(line)
                elif body.startswith("sent_id"):
                    sent_id = body.partition("=")[2].strip()
                elif body.startswith("text") and body.partition("=")[0].strip() == "text":
                    text = body.partition("=")[2].strip()
                else:
                    comments.append(line)
                continue
        elif line and not line.isspace():
            cols = line.split("\t")
            try:
                tid, form, lemma, upos, xpos, feats, head, deprel, deps, misc = cols
            except ValueError:
                raise ConlluError(f"expected 10 tab-separated columns, got {len(cols)}",
                                  line_no) from None
            if tid.isdecimal():
                pos, sub, zero = int(tid), 0, False
                dep = int(head) if head.isdecimal() else 0
                if dep == pos and fault is None:
                    fault = ConlluError(f"token {pos} governs itself", line_no)
                if pos != len(tokens) + 1 and gap is None:
                    gap = pos
            elif all(p.isdecimal() for p in tid.split(".", 1)):  # empty node "pos.sub"
                anchor, _, sub = tid.partition(".")
                pos, sub, zero = int(anchor), int(sub), True
                # empty nodes keep their governor in DEPS ("head:rel"); decimal
                # governors mean the governor is itself elided.
                gov = deps.split("|")[0].partition(":")[0]
                dep = int(gov) if gov.isdecimal() else 0
                if "." in gov:
                    elided.append(f"empty node {tid} governed by elided node {gov}")
            elif "-" in tid:  # multiword-token range
                first, _, last = tid.partition("-")
                if not (first.isdecimal() and last.isdecimal()):
                    raise ConlluError(f"bad token id {tid!r}", line_no)
                first, last = int(first), int(last)
                if last < first:
                    raise ConlluError(f"multiword token {first}-{last} ends before it starts",
                                      line_no)
                # one range per word: the line kept for its first word is all that is written
                for earlier, a, b in mwt_ranges:
                    if a <= last and first <= b:
                        raise ConlluError(f"multiword token {first}-{last} shares words "
                                          f"with {a}-{b} on line {earlier}", line_no)
                mwt_lines[first] = line
                mwt_ranges.append((line_no, first, last))
                continue
            else:
                raise ConlluError(f"bad token id {tid!r}", line_no)
            if misc == "_":
                misc = ()
            else:
                try:
                    misc, events = _parse_misc(misc, line_no)
                except ConlluError as err:
                    misc, fault = (), fault or err
                else:
                    if events:
                        entity_events.append(((pos, sub), events))
            (empties if zero else tokens).append(Token(
                pos, form, dep, zero, sub, lemma, upos, xpos, feats, deprel, deps, misc))
            continue
        else:
            body = None
        # a sentence break or a "# newdoc id" header
        if tokens or empties or mwt_ranges or sent_id or comments or text is not None:
            if doc is None:
                raise ConlluError("sentence before any '# newdoc id' header", line_no)
            if sent_id and sent_id in sent_ids:
                raise ConlluError(f"duplicate sent_id {sent_id!r}", line_no)
            sent_ids.add(sent_id)
            _add_sentence(doc, Sentence(sent_id, tokens, empties, text, comments, mwt_lines),
                          fault, gap, mwt_ranges, elided, entity_events)
            sent_id, text, comments, mwt_lines, mwt_ranges = "", None, [], {}, []
            tokens, empties, entity_events, elided, fault, gap = [], [], [], [], None, None
        if body is not None:
            if doc is not None:
                for c in doc.chains.values():
                    c.sort()
                yield doc
            doc = Document(body.partition("=")[2].strip())
            sent_ids.clear()


def parse_conllu(text: str) -> list[Document]:
    """Parse a CoNLL-U string (one or more ``# newdoc id`` documents)."""
    return list(iter_conllu(text.splitlines()))


# -- serialization -----------------------------------------------------------

def _eid_with_part(chain_id: str, part: int, nparts: int) -> str:
    if nparts == 1:
        return chain_id
    return f"{chain_id}[{part}/{nparts}]"


def _mention_fields(m: Mention) -> str | None:
    if m.raw_fields is not None:
        return m.raw_fields
    if m.is_zero:
        return None
    span = m.span_tokens()
    return str(span.index(m.head[0]) + 1)


def _sentence_entity_strings(doc_id: str, mentions: list[Mention], npos: int):
    """Entity= values keyed by (position, sub_index) for one sentence's mentions."""
    opens_by_start: dict[int, list] = {}  # start -> [(end, open_text, eid_for_close)]
    zeros: dict[tuple[int, int], list[str]] = {}  # (anchor, sub) -> [entity text]
    for m in mentions:
        fields = _mention_fields(m)
        if m.is_zero:
            zeros.setdefault(m.head, []).append(
                f"({m.chain_id}{'-' + fields if fields else ''})")
            continue
        for part, (s, e) in enumerate(m.fragments, start=1):
            eid = _eid_with_part(m.chain_id, part, len(m.fragments))
            tail = f"-{fields}" if fields and part == 1 else ""
            opens_by_start.setdefault(s, []).append((e, f"({eid}{tail}", eid))

    per_token: dict[tuple[int, int], str] = {}
    stack: list[tuple[int, str]] = []  # (end, eid_for_close), in opening order
    # only where a bracket opens or a span ends does anything happen
    ends = {e for opens in opens_by_start.values() for e, _, _ in opens}
    for p in sorted(p for p in opens_by_start.keys() | ends if 1 <= p <= npos):
        pieces = []
        # wider spans open first; equal spans order by bracket text so the
        # output is stable under parse -> serialize
        for e, text, eid in sorted(opens_by_start.get(p, ()), key=lambda x: (-x[0], x[1])):
            if e == p:
                pieces.append(text + ")")
            else:
                pieces.append(text)
                stack.append((e, eid))
        # closes are named, so spans ending here close latest-opened first,
        # crossing or not; a reader gives a close to the latest open of its
        # eid, so one of the same eid opened later must not still be open
        for i in reversed(range(len(stack))):
            if stack[i][0] == p:
                eid = stack.pop(i)[1]
                if any(other == eid for _, other in stack[i:]):
                    raise ConlluError(
                        f"document {doc_id!r}: crossing mentions of chain "
                        f"{eid!r} cannot be bracketed")
                pieces.append(eid + ")")
        if pieces:
            per_token[(p, 0)] = "".join(pieces)
    for key, texts in zeros.items():
        per_token[key] = "".join(texts)
    return per_token


def serialize_conllu(doc: Document) -> str:
    """Render a Document back to CoNLL-U (LF line endings, Entity regenerated)."""
    by_sentence: dict[int, list[Mention]] = {}
    for chain in doc.chains.values():
        for m in chain.mentions:
            by_sentence.setdefault(m.sent_index, []).append(m)
    lines = [f"# newdoc id = {doc.doc_id}", *doc.meta]
    for si, sent in enumerate(doc.sentences):
        npos = len(sent.tokens)
        mentions = by_sentence.get(si)
        entity = _sentence_entity_strings(doc.doc_id, mentions, npos) if mentions else {}
        if sent.sent_id:
            lines.append(f"# sent_id = {sent.sent_id}")
        if sent.text is not None:
            lines.append(f"# text = {sent.text}")
        lines.extend(sent.comments)
        # empty node p.k follows token p (0.k opens the sentence); one anchored
        # outside the sentence follows no token and is not written
        nodes = sent.tokens if not sent.empty_nodes else sorted(
            [*sent.tokens, *(t for t in sent.empty_nodes if 0 <= t.position <= npos)],
            key=lambda t: (t.position, t.is_zero, t.sub_index))
        for tok in nodes:
            if not tok.is_zero and tok.position in sent.mwt_lines:
                lines.append(sent.mwt_lines[tok.position])
            value = entity.get((tok.position, tok.sub_index)) if entity else None
            lines.append("\t".join([
                tok.tid, tok.form, tok.lemma, tok.upos, tok.xpos, tok.feats,
                "_" if tok.is_zero else str(tok.dep_head), tok.deprel, tok.deps,
                _misc_string(tok.misc, value) if tok.misc or value else "_",
            ]))
        lines.append("")
    return "\n".join(lines) + "\n"


def serialize_corpus(docs: list[Document]) -> str:
    return "".join(serialize_conllu(d) for d in docs)
