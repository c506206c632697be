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

import re
from dataclasses import dataclass, field


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

    def plain(self) -> str:
        return " ".join(t.form for t in self.tokens)


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

    def plain_text(self) -> str:
        return "\n".join(s.plain() for s in self.sentences)


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
        if a.isdigit() and b.isdigit():
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
        if piece.isdigit():
            return int(piece)
    return None


def _canonical_fields(fields: str | None) -> str | None:
    """A pure head-index field is regenerated on write, so keep it implicit."""
    if fields is not None and fields.isdigit():
        return None
    return fields


# -- parsing -----------------------------------------------------------------

# stands in a token's MISC where its Entity= value was parsed, so the value
# written back goes there; a token without one gets it first
_ENTITY_SLOT = ("Entity", "")


def _parse_misc(raw: str, line: int) -> tuple[tuple[tuple[str, str | None], ...], list | None]:
    """A MISC column's pairs in order, its ``Entity=`` value (the last one
    wins) replaced by ``_ENTITY_SLOT``, and that value's bracket events
    (None without one)."""
    if raw == "_":
        return (), None
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


class _SentenceAccumulator:
    """Collects the lines of one sentence and assembles tokens + mentions."""

    def __init__(self):
        self.sent_id = ""
        self.text: str | None = None
        self.comments: list[str] = []
        self.rows: list[tuple[int, list[str]]] = []  # (line_no, columns)
        self.mwt_lines: dict[int, str] = {}

    def empty(self) -> bool:
        return not (self.rows or self.sent_id or self.comments or self.text is not None)

    def build(self, doc: Document) -> None:
        """Append the sentence to ``doc`` and its mentions to ``doc.chains``."""
        tokens: list[Token] = []
        empties: list[Token] = []
        entity_events: list[tuple[tuple[int, int], list]] = []  # ((pos, sub), events)
        for line_no, cols in self.rows:
            id_field = cols[0]
            is_zero = not id_field.isdigit()
            if is_zero:  # empty node "pos.sub"
                anchor, _, sub = id_field.partition(".")
                pos, sub = int(anchor), int(sub)
                # empty nodes keep their governor in DEPS ("head:rel"); decimal
                # governors mean the governor is itself elided.
                gov = cols[8].split("|")[0].partition(":")[0]
                dep = int(gov) if gov.isdigit() else 0
                if "." in gov:
                    doc.warnings.append(
                        f"{self.sent_id or doc.doc_id}: empty node {id_field} "
                        f"governed by elided node {gov}")
            else:
                pos, sub = int(id_field), 0
                dep = int(cols[6]) if cols[6].isdigit() else 0
                if dep == pos:
                    raise ConlluError(f"token {pos} governs itself", line_no)
            misc, events = _parse_misc(cols[9], line_no)
            (empties if is_zero else tokens).append(
                Token(pos, cols[1], dep, is_zero, sub, cols[2], cols[3], cols[4],
                      cols[5], cols[7], cols[8], misc))
            if events:
                entity_events.append(((pos, sub), events))

        for i, t in enumerate(tokens, start=1):
            if t.position != i:
                raise ConlluError(
                    f"sentence {self.sent_id!r}: token positions not contiguous at {t.position}")
        seen_sub: dict[int, int] = {}
        for t in empties:
            if not (0 <= t.position <= len(tokens)):
                raise ConlluError(
                    f"sentence {self.sent_id!r}: empty node {t.tid} anchored outside sentence")
            if t.sub_index < 1 or seen_sub.get(t.position, 0) >= t.sub_index:
                raise ConlluError(
                    f"sentence {self.sent_id!r}: empty node IDs at anchor {t.position} not increasing")
            seen_sub[t.position] = t.sub_index

        sent = Sentence(self.sent_id, tokens, empties, self.text, self.comments, self.mwt_lines)
        if entity_events:
            for m in _assemble_mentions(entity_events, sent, len(doc.sentences), doc):
                doc.chains.setdefault(m.chain_id, Chain(m.chain_id)).mentions.append(m)
        doc.sentences.append(sent)


def _assemble_mentions(entity_events, sent: Sentence, sent_index: int,
                       doc: Document) -> list[Mention]:
    open_stack: list[tuple] = []  # (eid, part, nparts, fields, start)
    # several discontinuous mentions of one chain may be in flight at once;
    # parts arrive in order, part i+1 joining the oldest instance expecting it.
    # An instance is (nparts, ((start, end, fields), ...)).
    pending: dict[str, list[tuple]] = {}
    mentions: list[Mention] = []

    def surface(pos_sub, start=None):
        """A bracket's surface position. One on an empty node becomes the next
        token when it opens a mention and the node's anchor (not before
        ``start``) when it closes one."""
        pos, sub = pos_sub
        if sub == 0:
            return pos
        doc.warnings.append(f"{doc.doc_id}/{sent.sent_id}: mention bracket on empty node "
                            f"{pos}.{sub} approximated to surface span")
        return min(pos + 1, len(sent.tokens)) if start is None else max(pos, start)

    def add(eid, part, nparts, start, end, fields):
        """File one finished bracket; the last part of a mention completes it."""
        parts = ((start, end, fields),)
        if nparts != 1:
            instances = pending.setdefault(eid, [])
            if part == 1:
                instances.append((nparts, parts))
                return
            i = next((i for i, (n, done) in enumerate(instances)
                      if n == nparts and len(done) + 1 == part), None)
            if i is None:
                raise ConlluError(
                    f"document {doc.doc_id!r}: part {part}/{nparts} of chain {eid!r} "
                    f"has no preceding part {part - 1} in sentence {sent.sent_id!r}")
            parts = instances[i][1] + parts
            if len(parts) != nparts:
                instances[i] = (nparts, parts)
                return
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
        mentions.append(Mention(eid, sent_index, frags, head, False, _canonical_fields(fields)))

    for pos_sub, events in entity_events:
        for kind, eid, part, nparts, fields in events:
            if kind == "open":
                open_stack.append((eid, part, nparts, fields, surface(pos_sub)))
            elif kind == "single" and pos_sub[1]:
                mentions.append(Mention(eid, sent_index, (), pos_sub, True,
                                        _canonical_fields(fields)))
            elif kind == "single":
                add(eid, part, nparts, pos_sub[0], pos_sub[0], fields)
            else:  # close
                match = next((o for o in reversed(open_stack)
                              if o[0] == eid and o[1] == part), None)
                if match is None:
                    raise ConlluError(
                        f"document {doc.doc_id!r}: unbalanced Entity bracket for chain {eid!r} "
                        f"(close without open in sentence {sent.sent_id!r})")
                open_stack.remove(match)
                _, _, nparts, fields, start = match
                add(eid, part, nparts, start, surface(pos_sub, start), fields)

    if open_stack:
        raise ConlluError(
            f"document {doc.doc_id!r}: unbalanced Entity bracket for chain "
            f"{open_stack[-1][0]!r} (unclosed at end of sentence {sent.sent_id!r})")
    if pending:
        raise ConlluError(
            f"document {doc.doc_id!r}: discontinuous mention of chain {next(iter(pending))!r} "
            f"not completed within sentence {sent.sent_id!r}")
    return mentions


def parse_conllu(text: str) -> list[Document]:
    """Parse a CoNLL-U string (one or more ``# newdoc id`` documents)."""
    docs: list[Document] = []
    acc = _SentenceAccumulator()
    sent_ids: set[str] = set()
    # each line is a comment ("#"), a token line or a sentence break (blank);
    # the blank line appended to the text closes its last sentence
    for line_no, line in enumerate([*text.splitlines(), ""], start=1):
        if line[:1] == "#":
            body = line[1:].strip()
            if not body.startswith("newdoc id"):
                if not docs:
                    continue  # file preamble, e.g. "# global.columns = ..."
                if acc.empty() and not docs[-1].sentences \
                        and not body.startswith(("sent_id", "text ", "text=")):
                    # document-level header block (e.g. "# global.Entity = ...")
                    docs[-1].meta.append(line)
                elif body.startswith("sent_id"):
                    acc.sent_id = body.partition("=")[2].strip()
                elif body.startswith("text") and body.partition("=")[0].strip() == "text":
                    acc.text = body.partition("=")[2].strip()
                else:
                    acc.comments.append(line)
                continue
        elif line and not line.isspace():
            cols = line.split("\t")
            if len(cols) != 10:
                raise ConlluError(f"expected 10 tab-separated columns, got {len(cols)}", line_no)
            if cols[0].isdigit() or all(p.isdigit() for p in cols[0].split(".", 1)):
                acc.rows.append((line_no, cols))
            elif "-" in cols[0]:  # multiword-token range
                start = cols[0].partition("-")[0]
                if not start.isdigit():
                    raise ConlluError(f"bad token id {cols[0]!r}", line_no)
                acc.mwt_lines[int(start)] = line
            else:
                raise ConlluError(f"bad token id {cols[0]!r}", line_no)
            continue
        else:
            body = None
        # a sentence break or a "# newdoc id" header
        if not acc.empty():
            if not docs:
                raise ConlluError("sentence before any '# newdoc id' header", line_no)
            if acc.sent_id and acc.sent_id in sent_ids:
                raise ConlluError(f"duplicate sent_id {acc.sent_id!r}", line_no)
            sent_ids.add(acc.sent_id)
            acc.build(docs[-1])
        acc = _SentenceAccumulator()
        if body is not None:
            docs.append(Document(body.partition("=")[2].strip()))
            sent_ids.clear()
    for doc in docs:
        for chain in doc.chains.values():
            chain.sort()
    return docs


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
    for p in range(1, npos + 1):
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
        entity = _sentence_entity_strings(doc.doc_id, by_sentence.get(si, []), npos)
        if sent.sent_id:
            lines.append(f"# sent_id = {sent.sent_id}")
        if sent.text is not None:
            lines.append(f"# text = {sent.text}")
        lines.extend(sent.comments)
        # empty node p.k follows token p (0.k opens the sentence); one anchored
        # outside the sentence follows no token and is not written
        nodes = sorted([*sent.tokens, *(t for t in sent.empty_nodes if 0 <= t.position <= npos)],
                       key=lambda t: (t.position, t.is_zero, t.sub_index))
        for tok in nodes:
            if not tok.is_zero and tok.position in sent.mwt_lines:
                lines.append(sent.mwt_lines[tok.position])
            lines.append("\t".join([
                tok.tid, tok.form, tok.lemma, tok.upos, tok.xpos, tok.feats,
                "_" if tok.is_zero else str(tok.dep_head), tok.deprel, tok.deps,
                _misc_string(tok.misc, entity.get((tok.position, tok.sub_index))),
            ]))
        lines.append("")
    return "\n".join(lines) + "\n"


def serialize_corpus(docs: list[Document]) -> str:
    return "".join(serialize_conllu(d) for d in docs)
