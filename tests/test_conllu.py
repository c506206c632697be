"""CoNLL-U reader/writer: bracket grammar, empty nodes, round trips."""
import random
import re

import pytest
from hypothesis import given, strategies as st

from corefkit.cli import _lines
from corefkit.conllu import (Chain, ConlluError, Document, Mention, Sentence,
                             Token, _eid_with_part, _mention_fields, _sentence_entity_strings,
                             iter_conllu, mention_head, parse_conllu, serialize_conllu,
                             serialize_corpus)
from corefkit.synth import SynthConfig, random_corpus, random_document

from conftest import SISTER_CONLLU, make_sister_doc


def chain_table(doc):
    return {cid: sorted((m.fragments, m.head, m.is_zero) for m in c.mentions)
            for cid, c in doc.chains.items()}


def test_parse_showcase_sentence():
    doc = parse_conllu(SISTER_CONLLU)[0]
    assert doc.doc_id == "demo"
    assert [t.form for t in doc.sentences[0].tokens] == [
        "When", "Lison", "visits", "her", "sister", ",", "brings", "flowers."]
    assert chain_table(doc) == chain_table(make_sister_doc())
    [zero] = doc.sentences[0].empty_nodes
    assert (zero.position, zero.sub_index, zero.deps) == (7, 1, "7:nsubj")


def test_serialize_showcase_sentence():
    assert serialize_conllu(make_sister_doc()) == SISTER_CONLLU


def test_parse_serialize_is_byte_stable():
    text = serialize_conllu(parse_conllu(SISTER_CONLLU)[0])
    assert text == SISTER_CONLLU
    assert serialize_conllu(parse_conllu(text)[0]) == text


DISC = """\
# newdoc id = d
# sent_id = s1
1\tthe\t_\t_\t_\t_\t2\t_\t_\t_
2\tdog\t_\t_\t_\t_\t0\t_\t_\tEntity=(e9[1/2]-1
3\tthat\t_\t_\t_\t_\t2\t_\t_\tEntity=e9[1/2])
4\tbarks\t_\t_\t_\t_\t2\t_\t_\t_
5-6\tat'em\t_\t_\t_\t_\t_\t_\t_\t_
5\tat\t_\t_\t_\t_\t4\t_\t_\t_
6\tthem\t_\t_\t_\t_\t5\t_\t_\tEntity=(e9[2/2])
7\tloudly\t_\t_\t_\t_\t4\t_\t_\tEntity=(e2-kind-1-extra)

"""


def test_discontinuous_mention_parts_join():
    doc = parse_conllu(DISC)[0]
    [m] = doc.chains["e9"].mentions
    assert m.fragments == ((2, 3), (6, 6))
    # head index 1 counts tokens across the concatenated fragments
    assert m.head == (2, 0)


def test_unknown_dash_fields_survive_round_trip():
    doc = parse_conllu(DISC)[0]
    [m] = doc.chains["e2"].mentions
    assert m.raw_fields == "kind-1-extra"
    assert serialize_conllu(doc) == DISC


MISC_ORDER = """\
# newdoc id = m
# sent_id = s1
1\tAnna\t_\t_\t_\t_\t0\t_\t_\tSpaceAfter=No|Entity=(e1-person-1)
2\t,\t_\t_\t_\t_\t1\t_\t_\tGloss=comma

"""


def test_entity_is_written_back_where_it_was_read():
    doc = parse_conllu(MISC_ORDER)[0]
    assert serialize_conllu(doc) == MISC_ORDER
    # a token that loses its mention drops Entity=; one that gains it puts it first
    [m] = doc.chains["e1"].mentions
    doc.chains["e1"].mentions = [Mention("e1", 0, ((2, 2),), (2, 0), raw_fields=m.raw_fields)]
    assert serialize_conllu(doc).splitlines()[2:4] == [
        "1\tAnna\t_\t_\t_\t_\t0\t_\t_\tSpaceAfter=No",
        "2\t,\t_\t_\t_\t_\t1\t_\t_\tEntity=(e1-person-1)|Gloss=comma"]


def test_mwt_ranges_pass_through():
    assert "5-6\tat'em" in serialize_conllu(parse_conllu(DISC)[0])


def test_head_falls_back_to_dependency_structure():
    # strip the explicit head index: the head becomes the first token whose
    # governor lies outside the span ("dog", governed by the root)
    text = DISC.replace("(e9[1/2]-1", "(e9[1/2]")
    [m] = parse_conllu(text)[0].chains["e9"].mentions
    assert m.head == (2, 0)


def test_interleaved_parts_match_oldest_open():
    # two discontinuous e1 mentions whose second parts arrive in FIFO order
    text = """\
# newdoc id = d
# sent_id = s1
1\ta\t_\t_\t_\t_\t0\t_\t_\tEntity=(e1[1/2]-1)
2\tb\t_\t_\t_\t_\t1\t_\t_\tEntity=(e1[1/2]-1)
3\tc\t_\t_\t_\t_\t1\t_\t_\tEntity=(e1[2/2])
4\td\t_\t_\t_\t_\t1\t_\t_\tEntity=(e1[2/2])

"""
    doc = parse_conllu(text)[0]
    frags = sorted(m.fragments for m in doc.chains["e1"].mentions)
    assert frags == [((1, 1), (3, 3)), ((2, 2), (4, 4))]


CROSSING = """\
# newdoc id = d
# sent_id = s1
1\ta\t_\t_\t_\t_\t0\t_\t_\tEntity=(e1
2\tb\t_\t_\t_\t_\t1\t_\t_\tEntity=(e2
3\tc\t_\t_\t_\t_\t1\t_\t_\tEntity=e1)
4\td\t_\t_\t_\t_\t1\t_\t_\tEntity=e2)

"""


def test_crossing_mentions_round_trip():
    doc = parse_conllu(CROSSING)[0]
    assert chain_table(doc) == {"e1": [(((1, 3),), (1, 0), False)],
                                "e2": [(((2, 4),), (2, 0), False)]}
    text = serialize_conllu(doc)
    assert [line.rpartition("\t")[2] for line in text.splitlines()[2:6]] == [
        "Entity=(e1-1", "Entity=(e2-1", "Entity=e1)", "Entity=e2)"]
    back = parse_conllu(text)[0]
    assert back == doc
    assert serialize_conllu(back) == text


def test_crossing_mentions_of_one_chain_are_refused():
    # a reader would give the close on "c" to the later open of e1
    sent = Sentence("s1", [Token(i, w) for i, w in enumerate("abcd", start=1)])
    doc = Document("d", [sent], {"e1": Chain("e1", [
        Mention("e1", 0, ((1, 3),), (1, 0)), Mention("e1", 0, ((2, 4),), (2, 0))])})
    with pytest.raises(ConlluError, match="crossing mentions of chain 'e1'"):
        serialize_conllu(doc)


MALFORMED = [
    ("1\tonly-two", "10 tab-separated columns"),
    ("x\tbad\t_\t_\t_\t_\t0\t_\t_\t_", "bad token id"),
    ("1\tself\t_\t_\t_\t_\t1\t_\t_\t_", "governs itself"),
    ("1\topen\t_\t_\t_\t_\t0\t_\t_\tEntity=(e1-1", "unclosed"),
    ("1\tclose\t_\t_\t_\t_\t0\t_\t_\tEntity=e1)", "close without open"),
    ("1\tpart\t_\t_\t_\t_\t0\t_\t_\tEntity=(e1[2/2])", "no preceding part"),
    ("1\tempty\t_\t_\t_\t_\t0\t_\t_\tEntity=()", "empty Entity bracket"),
    ("1\tbare\t_\t_\t_\t_\t0\t_\t_\tEntity=e1", "unbalanced Entity value"),
    ("1\tlone\t_\t_\t_\t_\t0\t_\t_\tEntity=(e1[1/2])", "not completed"),
    ("2\tgap\t_\t_\t_\t_\t0\t_\t_\t_", "not contiguous"),
    ("1\tw\t_\t_\t_\t_\t0\t_\t_\t_\n3.1\t_\t_\t_\t_\t_\t_\t_\t_\t_",
     "anchored outside sentence"),
    ("1\tw\t_\t_\t_\t_\t0\t_\t_\t_\n1.2\t_\t_\t_\t_\t_\t_\t_\t_\t_\n"
     "1.1\t_\t_\t_\t_\t_\t_\t_\t_\t_", "not increasing"),
    # an empty node listed before the token it follows opens a mention that
    # closes on an earlier token, so its surface span is empty
    ("2.1\t_\t_\t_\t_\t_\t_\t_\t_\tEntity=(e1\n1\tw\t_\t_\t_\t_\t0\t_\t_\tEntity=e1)\n"
     "2\tx\t_\t_\t_\t_\t1\t_\t_\t_", r"chain 'e1' covers no token in sentence 's1'"),
    # a multiword token is written before its first word, which must exist
    ("1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n2-3\tbc\t_\t_\t_\t_\t_\t_\t_\t_",
     "line 4: multiword token 2-3 covers words its sentence does not have"),
    ("1-2\txy\t_\t_\t_\t_\t_\t_\t_\t_",
     "line 3: multiword token 1-2 covers words its sentence does not have"),
    # ranges may not share a word: one line per first word is all that is written
    ("1-2\txy\t_\t_\t_\t_\t_\t_\t_\t_\n1-3\txyz\t_\t_\t_\t_\t_\t_\t_\t_\n"
     "1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n2\tb\t_\t_\t_\t_\t1\t_\t_\t_\n"
     "3\tc\t_\t_\t_\t_\t1\t_\t_\t_",
     "line 4: multiword token 1-3 shares words with 1-2 on line 3"),
    ("1-2\txy\t_\t_\t_\t_\t_\t_\t_\t_\n1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n"
     "2-3\tyz\t_\t_\t_\t_\t_\t_\t_\t_\n2\tb\t_\t_\t_\t_\t1\t_\t_\t_\n"
     "3\tc\t_\t_\t_\t_\t1\t_\t_\t_",
     "line 5: multiword token 2-3 shares words with 1-2 on line 3"),
    ("1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n2-1\tba\t_\t_\t_\t_\t_\t_\t_\t_\n"
     "2\tb\t_\t_\t_\t_\t1\t_\t_\t_",
     "line 4: multiword token 2-1 ends before it starts"),
    # two faults in one sentence: a line's own fault comes first, wherever
    # it is, then the first bad row, then a position gap, then the brackets
    ("1\tself\t_\t_\t_\t_\t1\t_\t_\t_\n2\tw\t_\t_\t_\t_\t0\t_\t_",
     "line 4: expected 10 tab-separated columns, got 9"),
    ("2\tgap\t_\t_\t_\t_\t0\t_\t_\t_\n3\tself\t_\t_\t_\t_\t3\t_\t_\t_",
     "line 4: token 3 governs itself"),
    ("1\tself\t_\t_\t_\t_\t1\t_\t_\t_\n2\tw\t_\t_\t_\t_\t1\t_\t_\tEntity=(",
     "line 3: token 1 governs itself"),
    ("1\tw\t_\t_\t_\t_\t0\t_\t_\tEntity=(\n2\tself\t_\t_\t_\t_\t2\t_\t_\t_",
     r"line 3: empty Entity bracket in '\('"),
    ("1-5\tabcde\t_\t_\t_\t_\t_\t_\t_\t_\n2\tw\t_\t_\t_\t_\t0\t_\t_\t_",
     "token positions not contiguous at 2"),
    ("1\tself\t_\t_\t_\t_\t1\t_\t_\t_\nx\tw\t_\t_\t_\t_\t0\t_\t_\t_",
     "line 4: bad token id 'x'"),
    # an id must be decimal digits: "\u00b2" (superscript two) is a digit int() refuses
    ("1\tself\t_\t_\t_\t_\t1\t_\t_\t_\n\u00b2\tw\t_\t_\t_\t_\t0\t_\t_\t_",
     "line 4: bad token id '\u00b2'"),
    ("1\tw\t_\t_\t_\t_\t0\t_\t_\tEntity=(e1-1\n3\tx\t_\t_\t_\t_\t1\t_\t_\t_",
     "token positions not contiguous at 3"),
]


@pytest.mark.parametrize("line, message", MALFORMED)
def test_malformed_input_raises(line, message):
    text = f"# newdoc id = d\n# sent_id = s1\n{line}\n\n"
    with pytest.raises(ConlluError, match=message):
        parse_conllu(text)


def _row(tid, form="w", head="0"):
    return "\t".join([tid, form, "_", "_", "_", "_", head, "_", "_", "_"])


LINE_KINDS = [
    # a whitespace-only line ends a sentence
    ([_row("1"), " \t ", _row("1")], [("s1", ["1"], [], [], []), ("", ["1"], [], [], [])]),
    ([_row("1"), "# note = x", _row("2", head="1")], [("s1", ["1", "2"], [], ["# note = x"], [])]),
    (["1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_", _row("1"), _row("2", head="1")],
     [("s1", ["1", "2"], [], [], [1])]),
    ([_row("1"), "1.1\t_\t_\t_\t_\t_\t_\t_\t1:nsubj\t_", _row("2", head="1")],
     [("s1", ["1", "2"], ["1.1"], [], [])]),
    ([_row("1").rpartition("\t")[0]], "line 3: expected 10 tab-separated columns, got 9"),
    ([_row("1") + "\t_"], "line 3: expected 10 tab-separated columns, got 11"),
    ([_row("1"), _row("1a")], "line 4: bad token id '1a'"),
    ([_row("1"), _row("1.")], "line 4: bad token id '1.'"),
    ([" " + _row("1")], "line 3: bad token id ' 1'"),
    # only a line that starts with "#" is a comment
    ([_row("1"), " # note"], "line 4: expected 10 tab-separated columns, got 1"),
]


@pytest.mark.parametrize("lines, expected", LINE_KINDS)
def test_each_line_kind_reads_as_before(lines, expected):
    text = "\n".join(["# newdoc id = d", "# sent_id = s1", *lines, "", ""])
    if isinstance(expected, str):
        with pytest.raises(ConlluError) as err:
            parse_conllu(text)
        assert str(err.value) == expected
        return
    [doc] = parse_conllu(text)
    assert [(s.sent_id, [t.tid for t in s.tokens], [t.tid for t in s.empty_nodes],
             s.comments, sorted(s.mwt_lines)) for s in doc.sentences] == expected


def test_sentence_before_document_header_raises():
    with pytest.raises(ConlluError, match="newdoc"):
        parse_conllu("# sent_id = s1\n1\tword\t_\t_\t_\t_\t0\t_\t_\t_\n\n")


def test_comment_preamble_is_skipped():
    preamble = "# global.columns = ID FORM LEMMA UPOS XPOS FEATS HEAD DEPREL DEPS MISC\n"
    assert parse_conllu(preamble + DISC) == parse_conllu(DISC)


def test_duplicate_sent_id_raises():
    block = "1\tword\t_\t_\t_\t_\t0\t_\t_\t_\n\n"
    text = ("# newdoc id = d\n# sent_id = s1\n" + block
            + "# sent_id = s1\n" + block)
    with pytest.raises(ConlluError, match="duplicate sent_id"):
        parse_conllu(text)


def test_error_carries_line_number():
    text = "# newdoc id = d\n# sent_id = s1\n1\tbad\tcols\n\n"
    with pytest.raises(ConlluError, match=r"line 3"):
        parse_conllu(text)


def test_mention_head_prefers_external_governor():
    doc = parse_conllu(DISC)[0]
    sent = doc.sentences[0]
    assert mention_head(((1, 3),), sent) == (2, 0)  # "dog" governed from outside
    assert mention_head(((5, 6),), sent) == (5, 0)  # "at" governed by "barks"


@given(seed=st.integers(0, 10_000), disc=st.booleans())
def test_random_documents_round_trip(seed, disc):
    cfg = SynthConfig(seed=seed, p_discontinuous=0.25 if disc else 0.0)
    doc = random_document(f"doc{seed}", cfg)
    text = serialize_conllu(doc)
    back = parse_conllu(text)[0]
    assert chain_table(back) == chain_table(doc)
    assert serialize_conllu(back) == text


@pytest.mark.parametrize("docs, cfg", [
    (1, SynthConfig(sentences=(400, 400), chains=(60, 60), mentions_per_chain=(4, 4))),
    (60, SynthConfig(sentences=(3, 12))),
], ids=["long-document", "many-documents"])
def test_large_corpora_round_trip(docs, cfg):
    # the document shapes of the benchmark corpora, read back byte for byte
    rng = random.Random(1)
    text = serialize_corpus([random_document(f"d{i + 1}", cfg, rng) for i in range(docs)])
    assert serialize_corpus(parse_conllu(text)) == text


# -- the streaming reader ------------------------------------------------------

def streamed(tmp_path, text):
    """The documents of ``text`` as the commands read them: from a file, a
    block at a time, each document as soon as it is complete."""
    path = tmp_path / "input.conllu"
    path.write_bytes(text.encode("utf-8"))
    return list(iter_conllu(_lines(str(path))))


def outcome(read):
    """What ``read()`` gives: its documents, or its error message."""
    try:
        return read()
    except ConlluError as exc:
        return str(exc)


@pytest.mark.parametrize("n_docs", [1, 70])  # 70 documents run past one read block
def test_streamed_documents_equal_whole_text_parse(tmp_path, n_docs):
    corpus = random_corpus(n_docs, SynthConfig(sentences=(3, 12), p_zero=0.3,
                                               p_discontinuous=0.3, seed=n_docs))
    text = serialize_corpus(corpus.datasets[0][1])
    assert len(text.encode()) > 65536 or n_docs == 1
    docs = parse_conllu(text)
    assert list(iter_conllu(text.splitlines())) == docs
    assert streamed(tmp_path, text) == docs
    assert serialize_corpus(streamed(tmp_path, text)) == text
    # lines broken as str.splitlines breaks them, numbered the same way
    odd = text.replace("\n# sent_id", "\r\n# sent_id", 3).replace("\n# text", "\r# text", 2)
    assert streamed(tmp_path, odd) == parse_conllu(odd) == docs
    for sep in ("\x85", "\u2028", "\x0c"):
        broken = text.replace("\n# sent_id", f"\n# note{sep}x\n# sent_id", 1)
        assert outcome(lambda: streamed(tmp_path, broken)) == \
            outcome(lambda: parse_conllu(broken)) == \
            "line 3: expected 10 tab-separated columns, got 1"


@pytest.mark.parametrize("text", [
    *(f"# newdoc id = d\n# sent_id = s1\n{line}\n\n" for line, _ in MALFORMED),
    *("\n".join(["# newdoc id = d", "# sent_id = s1", *lines, "", ""])
      for lines, expected in LINE_KINDS if isinstance(expected, str)),
    # a fault in the second document, after a whole first one
    SISTER_CONLLU + "# newdoc id = e\n# sent_id = t1\n1\tbad\tcols\n\n",
    "# sent_id = s1\n1\tword\t_\t_\t_\t_\t0\t_\t_\t_\n\n",
])
def test_streamed_faults_equal_whole_text_faults(tmp_path, text):
    whole = outcome(lambda: parse_conllu(text))
    assert isinstance(whole, str)
    assert outcome(lambda: list(iter_conllu(text.splitlines()))) == whole
    assert outcome(lambda: streamed(tmp_path, text)) == whole


def test_a_document_is_yielded_before_the_next_one_is_read():
    text = SISTER_CONLLU + SISTER_CONLLU.replace("demo", "demo2")
    lines = text.splitlines()
    read = []

    def reading():
        for line in lines:
            read.append(line)
            yield line

    docs = iter_conllu(reading())
    assert next(docs).doc_id == "demo"
    assert read[-1] == "# newdoc id = demo2"  # the next header, and no further
    assert next(docs).doc_id == "demo2"
    assert next(docs, None) is None


def _entity_strings_per_position(doc_id, mentions, npos):
    """Reference for ``_sentence_entity_strings``: the same bracket rules,
    visiting every position of the sentence."""
    opens_by_start, zeros = {}, {}
    for m in mentions:
        fields = _mention_fields(m)
        if m.is_zero:
            zeros.setdefault(m.head, []).append(f"({m.chain_id}{'-' + fields if fields else ''})")
            continue
        for part, (s, e) in enumerate(m.fragments, start=1):
            eid = _eid_with_part(m.chain_id, part, len(m.fragments))
            tail = f"-{fields}" if fields and part == 1 else ""
            opens_by_start.setdefault(s, []).append((e, f"({eid}{tail}", eid))
    per_token, stack = {}, []
    for p in range(1, npos + 1):
        pieces = []
        for e, text, eid in sorted(opens_by_start.get(p, ()), key=lambda x: (-x[0], x[1])):
            pieces.append(text + ")" if e == p else text)
            if e != p:
                stack.append((e, eid))
        for i in reversed(range(len(stack))):
            if stack[i][0] == p:
                eid = stack.pop(i)[1]
                if any(other == eid for _, other in stack[i:]):
                    raise ConlluError(f"document {doc_id!r}: crossing mentions of chain "
                                      f"{eid!r} cannot be bracketed")
                pieces.append(eid + ")")
        if pieces:
            per_token[(p, 0)] = "".join(pieces)
    for key, texts in zeros.items():
        per_token[key] = "".join(texts)
    return per_token


@st.composite
def _sentence_mentions(draw):
    """A sentence length and mentions over it: spans that nest, cross or
    run past the sentence, discontinuous ones, zeros, chains repeated."""
    npos = draw(st.integers(0, 8))
    mentions = []
    for _ in range(draw(st.integers(0, 6))):
        chain = draw(st.sampled_from(["e1", "e2", "e3"]))
        if draw(st.booleans()) and npos:
            mentions.append(Mention(chain, 0, (), (draw(st.integers(0, npos)), 1), True))
            continue
        starts = sorted(draw(st.sets(st.integers(1, npos + 2), min_size=1, max_size=2)))
        fragments = []
        for k, s in enumerate(starts):
            limit = starts[k + 1] - 1 if k + 1 < len(starts) else npos + 2
            fragments.append((s, draw(st.integers(s, max(s, limit)))))
        mentions.append(Mention(chain, 0, tuple(fragments), (fragments[0][0], 0)))
    return npos, mentions


@given(_sentence_mentions())
def test_entity_strings_equal_a_visit_of_every_position(drawn):
    npos, mentions = drawn
    try:
        expected = _entity_strings_per_position("d", mentions, npos)
    except ConlluError as exc:
        with pytest.raises(ConlluError, match=re.escape(str(exc))):
            _sentence_entity_strings("d", mentions, npos)
    else:
        assert _sentence_entity_strings("d", mentions, npos) == expected
