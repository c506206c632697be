"""Window-local chain numbering and its inverse."""
from hypothesis import given, strategies as st

from corefkit.formats import AnnotatedText, Format, TagEvent
from corefkit.reindex import IdAllocator, IdMap, globalize, localize


def ann(events, tokens=None, fmt=Format.HEADWORD):
    toks = tokens if tokens is not None else [f"w{i}" for i in range(8)]
    return AnnotatedText(toks, events, fmt, ())


def heads(chains):
    return [TagEvent("head", c, i) for i, c in enumerate(chains)]


def test_localize_numbers_by_first_appearance():
    local, idmap = localize(ann(heads(["e42", "e7", "e42", "e13"])))
    assert [ev.chain for ev in local.events] == [0, 1, 0, 2]
    assert idmap.local_to_global == {0: "e42", 1: "e7", 2: "e13"}


def test_localize_leaves_ints_and_closes_alone():
    events = [TagEvent("span", "e5", 0, 1), TagEvent("head", 7, 2)]
    local, idmap = localize(ann(events, fmt=Format.MINIMAL))
    assert [(ev.chain, ev.end) for ev in local.events] == [(0, 1), (7, None)]


def test_globalize_maps_known_and_mints_fresh():
    idmap = IdMap({0: "e42", 1: "e7", 2: "e13"},
                  {"e42": 0, "e7": 1, "e13": 2})
    allocator = IdAllocator({"e42", "e7", "e13", "e43"})
    out, diags = globalize(ann(heads([0, 3, 4, 3])), idmap, allocator)
    assert diags == []
    assert [ev.chain for ev in out.events] == ["e42", "e44", "e45", "e44"]


def test_globalize_with_empty_context_mints_everything():
    out, diags = globalize(ann(heads([0, 0, 1])), IdMap(), IdAllocator())
    assert diags == []
    chains = [ev.chain for ev in out.events]
    assert chains[0] == chains[1] != chains[2]


def test_globalize_drops_unusable_indices():
    events = [TagEvent("head", -2, 0), TagEvent("head", "weird", 1),
              TagEvent("head", 0, 2)]
    out, diags = globalize(ann(events), IdMap(), IdAllocator())
    assert len(out.events) == 1 and len(diags) == 2
    assert all(d.stage == "reindex" for d in diags)


def test_allocator_skips_existing_ids():
    alloc = IdAllocator({"e9", "e10", "other"})
    assert alloc.fresh() == "e11"
    assert alloc.fresh() == "e12"


def test_shared_idmap_keeps_one_numbering_across_windows():
    idmap = IdMap()
    first, idmap = localize(ann(heads(["e3", "e8"])), idmap)
    second, idmap = localize(ann(heads(["e8", "e5"])), idmap)
    assert [ev.chain for ev in first.events] == [0, 1]
    assert [ev.chain for ev in second.events] == [1, 2]


@given(st.lists(st.integers(0, 6).map(lambda k: f"e{k}"), max_size=24))
def test_globalize_inverts_localize(chains):
    original = ann(heads(chains), tokens=[f"w{i}" for i in range(len(chains))])
    local, idmap = localize(original)
    restored, diags = globalize(local, idmap, IdAllocator(set(chains)))
    assert diags == []
    assert [ev.chain for ev in restored.events] == chains
