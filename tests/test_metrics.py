"""Cluster metrics against hand derivations and a brute-force assignment."""
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from corefkit.conllu import Chain, Corpus, Document, Mention, Sentence, Token
from corefkit.metrics import (PRF, antecedent_cdf, b_cubed, ceaf_e, conll_f1,
                              density, muc, phi4, score, score_clusters)

from conftest import make_sister_doc

# the worked two-chain example: gold {a,b,c},{d,e} against pred {a,b},{c,d,e}
GOLD_AB = [{"a", "b", "c"}, {"d", "e"}]
PRED_AB = [{"a", "b"}, {"c", "d", "e"}]


def test_muc_on_worked_example():
    # gold side: {a,b,c} falls into 2 response parts -> 3-2=1 of 2 links;
    # {d,e} stays whole -> 1 of 1; recall (1+1)/(2+1) = 2/3.
    # response side mirrors it: {a,b} whole -> 1/1; {c,d,e} split -> 1/2;
    # precision (1+1)/(1+2) = 2/3.
    prf = muc(GOLD_AB, PRED_AB)
    assert prf.recall == pytest.approx(2 / 3, abs=1e-12)
    assert prf.precision == pytest.approx(2 / 3, abs=1e-12)
    assert prf.f1 == pytest.approx(2 / 3, abs=1e-12)


def test_b_cubed_on_worked_example():
    # per-mention overlap fractions: a,b = 2/3 each, c = 1/3, d,e = 1 each
    # -> recall (2/3+2/3+1/3+1+1)/5 = 11/15; precision symmetric.
    prf = b_cubed(GOLD_AB, PRED_AB)
    assert prf.recall == pytest.approx(11 / 15, abs=1e-12)
    assert prf.precision == pytest.approx(11 / 15, abs=1e-12)
    assert prf.f1 == pytest.approx(11 / 15, abs=1e-12)


def test_ceaf_e_on_worked_example():
    # phi4 alignment {a,b,c}<->{a,b} (4/5) + {d,e}<->{c,d,e} (4/5) = 8/5 of 2
    prf = ceaf_e(GOLD_AB, PRED_AB)
    assert prf.f1 == pytest.approx(4 / 5, abs=1e-12)


def test_identical_clusterings_score_one():
    for metric in (muc, b_cubed, ceaf_e):
        assert metric(GOLD_AB, GOLD_AB).f1 == pytest.approx(1.0)


def test_degenerate_inputs_score_zero():
    assert muc([], []).f1 == 0.0
    assert b_cubed([], [{"a"}]).recall == 0.0
    prf = ceaf_e([{"a"}], [])
    assert (prf.recall, prf.precision, prf.f1) == (0.0, 0.0, 0.0)
    assert muc([{"a"}], [{"a"}]).f1 == 0.0  # singletons carry no links


def _brute_force_ceaf(gold, pred):
    """Optimal one-to-one cluster assignment by explicit enumeration."""
    if not gold or not pred:
        return 0.0
    small, large = (gold, pred) if len(gold) <= len(pred) else (pred, gold)
    return max(sum(phi4(small[i], large[j]) for i, j in enumerate(perm))
               for perm in permutations(range(len(large)), len(small)))


@st.composite
def clusterings(draw):
    universe = [f"m{i}" for i in range(draw(st.integers(1, 10)))]
    def split(members):
        labels = draw(st.lists(st.integers(0, 5), min_size=len(members),
                               max_size=len(members)))
        out = {}
        for m, l in zip(members, labels):
            out.setdefault(l, set()).add(m)
        return list(out.values())[:6]
    kept = draw(st.lists(st.sampled_from(universe), unique=True, min_size=1))
    return split(universe), split(kept)


@given(clusterings())
def test_ceaf_e_matches_brute_force(pair):
    gold, pred = pair
    expected = _brute_force_ceaf(gold, pred)
    prf = ceaf_e(gold, pred)
    assert prf.recall_num == pytest.approx(expected, abs=1e-9)
    assert prf.recall_den == len(gold) and prf.precision_den == len(pred)


def test_ceaf_e_long_chain_matches_every_cluster():
    # one overlap component of 2,000 clusters: gold {2k,2k+1}, pred {2k+1,2k+2};
    # pairing each gold cluster with the pred one it starts gives 1,000 x 1/2
    gold = [{2 * k, 2 * k + 1} for k in range(1000)]
    pred = [{2 * k + 1, 2 * k + 2} for k in range(1000)]
    assert ceaf_e(gold, pred).recall_num == 500.0


def test_ceaf_e_over_separate_components():
    # component one: 3 gold clusters against 2 pred ones, {a,b,c} and {e,f}
    # share nothing; component two: 2 gold against 3 pred; {q,r} meets no gold
    gold = [set("abc"), set("de"), {"f"}, set("uv"), set("wxy")]
    pred = [set("abd"), set("ef"), set("uw"), set("vx"), set("yz"), set("qr")]
    prf = ceaf_e(gold, pred)
    assert prf.recall_num == pytest.approx(_brute_force_ceaf(gold, pred), abs=1e-9)
    assert (prf.recall_den, prf.precision_den) == (5, 6)


def test_ceaf_e_with_overlapping_predicted_clusters():
    # a and b sit in both pred clusters: the best alignment needs the second
    # one, {a,b} <-> {a,b} (1) plus {c,d} <-> {a,b,c} (2/5)
    gold = [set("ab"), set("cd")]
    pred = [set("abc"), set("ab")]
    assert ceaf_e(gold, pred).recall_num == pytest.approx(
        _brute_force_ceaf(gold, pred), abs=1e-9)
    assert _brute_force_ceaf(gold, pred) == pytest.approx(1.4)


# -- document-level scoring ---------------------------------------------------


def _doc(chains: dict[str, list[int]], n_tokens: int = 12) -> Document:
    """One-sentence document; each mention is the single token at its head."""
    sent = Sentence("s1", [Token(p + 1, f"w{p + 1}", 0 if p == 0 else 1)
                           for p in range(n_tokens)])
    doc = Document("d1", [sent])
    for cid, positions in chains.items():
        doc.chains[cid] = Chain(cid, [
            Mention(cid, 0, ((p, p),), (p, 0)) for p in positions])
    return doc


def test_score_on_worked_example_documents():
    gold = _doc({"g1": [1, 2, 3], "g2": [4, 5]})
    pred = _doc({"p1": [1, 2], "p2": [3, 4, 5]})
    result = score(gold, pred)
    assert result["muc"].f1 == pytest.approx(2 / 3, abs=1e-12)
    assert result["b3"].f1 == pytest.approx(11 / 15, abs=1e-12)
    assert result["ceaf_e"].f1 == pytest.approx(4 / 5, abs=1e-12)


def test_singletons_are_dropped_before_matching():
    gold = _doc({"g1": [1, 2], "lone": [9]})
    pred = _doc({"p1": [1, 2]})
    result = score(gold, pred)
    assert all(prf.f1 == pytest.approx(1.0) for prf in result.values())


def test_heads_match_across_span_widths():
    gold = _doc({"g1": [3, 7]})
    sent = gold.sentences[0]
    pred = Document("d1", [sent])
    # wider spans, same heads
    pred.chains["x"] = Chain("x", [Mention("x", 0, ((2, 4),), (3, 0)),
                                   Mention("x", 0, ((6, 8),), (7, 0))])
    assert score(gold, pred)["muc"].f1 == pytest.approx(1.0)


def test_unmatched_prediction_mentions_hurt_precision():
    gold = _doc({"g1": [1, 2]})
    pred = _doc({"p1": [1, 2, 9]})
    result = score(gold, pred)
    assert result["muc"].recall == pytest.approx(1.0)
    assert result["muc"].precision == pytest.approx(0.5)


def test_score_invariant_to_chain_insertion_order():
    gold = _doc({"g1": [1, 2, 3], "g2": [4, 5]})
    pred_a = _doc({"p1": [1, 2], "p2": [3, 4, 5]})
    pred_b = _doc({"p2": [3, 4, 5], "p1": [1, 2]})
    a = {m: prf.f1 for m, prf in score(gold, pred_a).items()}
    b = {m: prf.f1 for m, prf in score(gold, pred_b).items()}
    assert a == b


def test_conll_f1_report_shape_and_missing_documents():
    gold_doc = _doc({"g1": [1, 2, 3], "g2": [4, 5]})
    pred_doc = _doc({"p1": [1, 2], "p2": [3, 4, 5]})
    gold = Corpus([("ds", [gold_doc])])
    pred = Corpus([("ds", [pred_doc])])
    report = conll_f1(gold, pred)
    block = report.per_dataset["ds"]
    expected = 100.0 * (2 / 3 + 11 / 15 + 4 / 5) / 3
    assert block["conll_f1"] == pytest.approx(expected, abs=1e-9)
    assert report.macro_average == pytest.approx(expected, abs=1e-9)
    assert "dataset" in report.to_table() and "macro" in report.to_table()

    none = conll_f1(gold, Corpus([("ds", [])]))
    assert none.warnings and none.per_dataset["ds"]["conll_f1"] == 0.0


def test_conll_f1_micro_pools_documents_within_dataset():
    d1 = _doc({"g1": [1, 2]})
    d2 = _doc({"g1": [3, 4, 5]})
    d2.doc_id = "d2"
    gold = Corpus([("ds", [d1, d2])])
    # perfect on d1, empty on d2: recall num pools 1 of (1+2) muc links
    pred = Corpus([("ds", [_doc({"p": [1, 2]}), Document("d2", d2.sentences)])])
    report = conll_f1(gold, pred)
    assert report.per_dataset["ds"]["muc"]["recall"] == pytest.approx(1 / 3)


def test_perfect_prediction_scores_100(sister_doc):
    gold = Corpus([("demo", [sister_doc])])
    pred = Corpus([("demo", [make_sister_doc()])])
    assert conll_f1(gold, pred).macro_average == pytest.approx(100.0)


# -- corpus diagnostics ---------------------------------------------------------


def test_density_counts_surface_tokens_only(sister_doc):
    corpus = Corpus([("demo", [sister_doc])])
    stats = density(corpus)
    # 4 mentions over 8 surface tokens; the empty node is not a token
    assert stats.per_dataset["demo"]["gold_per_100"] == pytest.approx(50.0)
    no_single = density(corpus, include_singletons=False)
    assert no_single.per_dataset["demo"]["gold_per_100"] == pytest.approx(37.5)


def test_density_relative_error(sister_doc):
    gold = Corpus([("demo", [sister_doc])])
    pred_doc = make_sister_doc()
    del pred_doc.chains["e2"]
    pred = Corpus([("demo", [pred_doc])])
    entry = density(gold, pred).per_dataset["demo"]
    assert entry["pred_per_100"] == pytest.approx(37.5)
    assert entry["relative_error"] == pytest.approx(-0.25)


def test_antecedent_cdf_on_fixture(sister_doc):
    cdf = antecedent_cdf(Corpus([("demo", [sister_doc])]))
    # e1 heads at word indices 1 (Lison), 3 (her), 6 (zero after "brings")
    assert cdf.count == 2
    assert cdf.distances == [2, 3]
    assert cdf.cumulative == [pytest.approx(0.5), pytest.approx(1.0)]
    assert cdf.coverage(1) == 0.0
    assert cdf.coverage(2) == pytest.approx(0.5)
    assert cdf.coverage(100) == pytest.approx(1.0)
    assert "distance_words" in cdf.to_csv().splitlines()[0]


def test_empty_cdf_coverage_is_vacuously_total():
    cdf = antecedent_cdf(Corpus([("demo", [Document("d")])]))
    assert cdf.count == 0 and cdf.coverage(0) == 1.0


def test_prf_aggregation():
    total = PRF()
    total.add(PRF(1, 2, 1, 4))
    total.add(PRF(1, 2, 3, 4))
    assert total.recall == pytest.approx(0.5)
    assert total.precision == pytest.approx(0.5)
    assert PRF(0, 0, 0, 0).f1 == 0.0


def test_score_is_stable_under_reordering():
    # two mentions share head 3; span order ranks (2, 4) before (3, 3)
    wide = Mention("x", 0, ((2, 4),), (3, 0))
    narrow = Mention("x", 0, ((3, 3),), (3, 0))
    seven, nine = (Mention("x", 0, ((p, p),), (p, 0)) for p in (7, 9))
    by_span = {"g1": [wide, seven], "g2": [narrow, nine]}
    same = [("p1", [wide, seven]), ("p2", [narrow, nine])]
    swapped = [("p1", [narrow, seven]), ("p2", [wide, nine])]
    # two chains hold a mention of equal span on head 3: the chains' content
    # ranks them, not the order they are stored in
    by_content = {"g1": [narrow, seven], "g2": [narrow, nine]}
    twins = [("p1", [narrow, seven]), ("p2", [narrow, nine])]
    for gold_chains, chains, muc_f1 in ((by_span, same, 1.0), (by_span, swapped, 0.0),
                                        (by_content, twins, 1.0)):
        gold = _doc({})
        gold.chains = {cid: Chain(cid, list(ms)) for cid, ms in gold_chains.items()}
        results = []
        for order in permutations(chains):
            for flip in (False, True):
                pred = _doc({})
                pred.chains = {cid: Chain(cid, ms[::-1] if flip else list(ms))
                               for cid, ms in order}
                results.append(score(gold, pred))
        assert all(r == results[0] for r in results)
        assert results[0]["muc"].f1 == muc_f1
