"""Head-matched coreference scoring and corpus diagnostics.

Scoring follows the CoNLL-2012 reference semantics: MUC, B-cubed and
entity-based CEAF over clusters, with mentions compared by head token only
and singleton chains removed from both sides before matching. The CoNLL F1
is 100 times the mean of the three F1s; dataset scores aggregate numerators
and denominators over documents, and the corpus score is the macro average
over datasets. CEAF-e builds no gold x predicted matrix: only clusters
that share a mention can score, so its assignment is solved over those
pairs alone by shortest augmenting paths with potentials (the Hungarian
method; Kuhn 1955), and each gold cluster may instead take a zero-cost
"unmatched" column of its own.

Diagnostics: mention density per 100 surface tokens, and the distribution
of distances (in surface words) between consecutive same-chain mention
heads, as a CDF with a coverage(budget) helper.
"""
from __future__ import annotations

import csv
import heapq
import io
import json
from dataclasses import dataclass, field

from .conllu import Corpus, Document, Mention


@dataclass
class PRF:
    recall_num: float = 0.0
    recall_den: float = 0.0
    precision_num: float = 0.0
    precision_den: float = 0.0

    def add(self, other: PRF) -> None:
        self.recall_num += other.recall_num
        self.recall_den += other.recall_den
        self.precision_num += other.precision_num
        self.precision_den += other.precision_den

    @property
    def recall(self) -> float:
        return self.recall_num / self.recall_den if self.recall_den else 0.0

    @property
    def precision(self) -> float:
        return self.precision_num / self.precision_den if self.precision_den else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def as_dict(self) -> dict:
        return {"recall": self.recall, "precision": self.precision, "f1": self.f1}


METRICS = ("muc", "b3", "ceaf_e")


def _owners(clusters: list[set]) -> dict:
    """Each mention's cluster index; the first cluster holding it wins."""
    owner: dict = {}
    for idx, cluster in enumerate(clusters):
        for m in cluster:
            owner.setdefault(m, idx)
    return owner


def muc(gold: list[set], pred: list[set]) -> PRF:
    def side(keys: list[set], responses: list[set]) -> tuple[float, float]:
        owner = _owners(responses)
        num = den = 0.0
        for cluster in keys:
            parts = {owner[m] for m in cluster if m in owner}
            missing = sum(1 for m in cluster if m not in owner)
            num += len(cluster) - (len(parts) + missing)
            den += len(cluster) - 1
        return num, den

    rn, rd = side(gold, pred)
    pn, pd = side(pred, gold)
    return PRF(rn, rd, pn, pd)


def b_cubed(gold: list[set], pred: list[set]) -> PRF:
    def side(keys: list[set], responses: list[set]) -> tuple[float, float]:
        owner = _owners(responses)
        num = den = 0.0
        for cluster in keys:
            for m in cluster:
                resp = responses[owner[m]] if m in owner else frozenset()
                num += len(cluster & resp) / len(cluster)
                den += 1
        return num, den

    rn, rd = side(gold, pred)
    pn, pd = side(pred, gold)
    return PRF(rn, rd, pn, pd)


def phi4(a: set, b: set) -> float:
    return 2 * len(a & b) / (len(a) + len(b)) if a or b else 0.0


def ceaf_e(gold: list[set], pred: list[set]) -> PRF:
    """Entity CEAF (Luo 2005): the one-to-one alignment of gold to
    predicted clusters with the largest phi4 sum; costs are -phi4."""
    holders: dict = {}  # mention -> every predicted cluster holding it
    for j, p in enumerate(pred):
        for m in p:
            holders.setdefault(m, []).append(j)
    edges = []  # per gold cluster i: (column, cost), ending in its own column
    for i, g in enumerate(gold):
        shared: dict[int, int] = {}
        for m in g:
            for j in holders.get(m, ()):
                shared[j] = shared.get(j, 0) + 1
        edges.append([(j, -2 * n / (len(g) + len(pred[j]))) for j, n in shared.items()]
                     + [(len(pred) + i, 0.0)])
    # reduced costs c - u[row] - v[column] stay >= 0, and 0 on matched pairs
    u = [min(c for _, c in row) for row in edges]
    v = [0.0] * (len(pred) + len(gold))
    owner, taken = {}, {}  # column -> its gold row, and back
    for s in range(len(gold)):
        dist, via = {}, {}
        # a free column pops first among equals, so ties never walk a chain
        heap = [(c - u[s] - v[j], j in owner, j, s) for j, c in edges[s]]
        heapq.heapify(heap)
        while True:  # Dijkstra over columns until one is free
            d, _, j, r = heapq.heappop(heap)
            if j in dist:
                continue
            dist[j], via[j] = d, r
            if j not in owner:
                break
            r = owner[j]
            for k, c in edges[r]:
                if k not in dist:
                    heapq.heappush(heap, (d + c - u[r] - v[k], k in owner, k, r))
        u[s] += d
        for k, dk in dist.items():
            if k in owner:
                u[owner[k]] += d - dk
            v[k] -= d - dk
        while j is not None:  # flip the path back to s, which has no column yet
            r = via[j]
            owner[j], taken[r], j = r, j, taken.get(r)
    total = 0.0
    for i, j in sorted(taken.items()):
        total += phi4(gold[i], pred[j]) if j < len(pred) else 0.0
    return PRF(total, float(len(gold)), total, float(len(pred)))


def _named_clusters(doc: Document) -> list[set]:
    """The document's chains of two or more mentions, each mention named by
    its (sentence, head) key and its rank among that key's mentions in span
    order, so gold and predicted mentions of one name are matched. Equal
    spans on one head rank by their chains' content, so the names do not
    depend on the order the chains are stored in."""
    chains = sorted((c.mentions for c in doc.chains.values() if len(c.mentions) > 1),
                    key=lambda ms: sorted((m.sent_index, m.head, m.fragments) for m in ms))
    by_key: dict[tuple, list[tuple[tuple, int]]] = {}
    for ci, mentions in enumerate(chains):
        for m in mentions:
            by_key.setdefault((m.sent_index, m.head), []).append((m.fragments, ci))
    clusters: list[set] = [set() for _ in chains]
    for key, found in by_key.items():
        found.sort(key=lambda f: f[0])
        for rank, (_, ci) in enumerate(found):
            clusters[ci].add((key, rank))
    return clusters


def score_clusters(gold: list[set], pred: list[set]) -> dict[str, PRF]:
    """The three metrics over clusters of already-identified mentions."""
    return {"muc": muc(gold, pred), "b3": b_cubed(gold, pred), "ceaf_e": ceaf_e(gold, pred)}


def score(gold_doc: Document, pred_doc: Document) -> dict[str, PRF]:
    """Drop singleton chains, name mentions by head on both sides, then
    score the induced clusters."""
    return score_clusters(_named_clusters(gold_doc), _named_clusters(pred_doc))


@dataclass
class ScoreReport:
    per_dataset: dict[str, dict] = field(default_factory=dict)
    macro_average: float = 0.0
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"datasets": self.per_dataset, "macro_average": self.macro_average,
                "warnings": self.warnings}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        rows = [("dataset", "muc", "b3", "ceaf_e", "conll_f1")]
        for name, block in self.per_dataset.items():
            rows.append((name,) + tuple(
                f"{block[m]['f1'] * 100:.2f}" for m in METRICS
            ) + (f"{block['conll_f1']:.2f}",))
        rows.append(("macro", "", "", "", f"{self.macro_average:.2f}"))
        widths = [max(len(r[c]) for r in rows) for c in range(5)]
        return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                         for r in rows)


def conll_f1(gold: Corpus, pred: Corpus) -> ScoreReport:
    """Dataset-level micro aggregation, macro averaged across datasets.

    Documents present in gold but missing from pred are scored against an
    empty prediction and reported in the warnings list.
    """
    report = ScoreReport()
    pred_by_ds = {name: {d.doc_id: d for d in docs} for name, docs in pred.datasets}
    f1s = []
    for name, docs in gold.datasets:
        pred_docs = pred_by_ds.get(name, {})
        if name not in pred_by_ds:
            report.warnings.append(f"dataset {name!r} missing from prediction")
        totals = {m: PRF() for m in METRICS}
        for gdoc in docs:
            pdoc = pred_docs.get(gdoc.doc_id)
            if pdoc is None:
                report.warnings.append(
                    f"document {gdoc.doc_id!r} missing from prediction; scored as empty")
                pdoc = Document(gdoc.doc_id, gdoc.sentences)
            for metric, prf in score(gdoc, pdoc).items():
                totals[metric].add(prf)
        block = {m: totals[m].as_dict() for m in METRICS}
        block["conll_f1"] = 100.0 * sum(totals[m].f1 for m in METRICS) / 3.0
        report.per_dataset[name] = block
        f1s.append(block["conll_f1"])
    report.macro_average = sum(f1s) / len(f1s) if f1s else 0.0
    return report


# -- corpus diagnostics --------------------------------------------------------

@dataclass
class DensityStats:
    per_dataset: dict[str, dict] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"datasets": self.per_dataset}


def _density_of(docs: list[Document], include_singletons: bool) -> float:
    mentions = 0
    tokens = 0
    for d in docs:
        tokens += d.surface_token_count()
        for chain in d.chains.values():
            if include_singletons or not chain.is_singleton:
                mentions += len(chain.mentions)
    return 100.0 * mentions / tokens if tokens else 0.0


def density(gold: Corpus, pred: Corpus | None = None,
            include_singletons: bool = True) -> DensityStats:
    """Mentions per 100 surface tokens (empty nodes excluded from the count)."""
    stats = DensityStats()
    pred_by_ds = dict(pred.datasets) if pred is not None else {}
    for name, docs in gold.datasets:
        g = _density_of(docs, include_singletons)
        entry: dict = {"gold_per_100": g, "pred_per_100": None, "relative_error": None}
        if name in pred_by_ds:
            p = _density_of(pred_by_ds[name], include_singletons)
            entry["pred_per_100"] = p
            entry["relative_error"] = (p - g) / g if g else None
        stats.per_dataset[name] = entry
    return stats


@dataclass
class DistanceCdf:
    """Cumulative distribution of antecedent distances in surface words."""

    distances: list[int] = field(default_factory=list)      # sorted unique
    cumulative: list[float] = field(default_factory=list)   # same length, ends at 1.0
    count: int = 0

    def coverage(self, budget: int) -> float:
        """Fraction of non-first mentions whose previous same-chain mention
        head lies within ``budget`` words (vacuously 1.0 when empty)."""
        if not self.distances:
            return 1.0
        frac = 0.0
        for d, c in zip(self.distances, self.cumulative):
            if d > budget:
                break
            frac = c
        return frac

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["distance_words", "cumulative_fraction"])
        for d, c in zip(self.distances, self.cumulative):
            w.writerow([d, f"{c:.6f}"])
        return buf.getvalue()


def _head_word_index(m: Mention, offsets: list[int]) -> int:
    # an empty node head carries its anchor position, so it lands on the
    # anchor's word index; anchor 0 clamps to the sentence start
    return offsets[m.sent_index] + max(m.head[0] - 1, 0)


def antecedent_cdf(gold: Corpus) -> DistanceCdf:
    """Distances between consecutive same-chain mention heads, pooled over
    every document of every dataset."""
    distances: list[int] = []
    for _, docs in gold.datasets:
        for doc in docs:
            offsets = doc.sentence_starts()
            for chain in doc.chains.values():
                idxs = sorted(_head_word_index(m, offsets) for m in chain.mentions)
                distances.extend(b - a for a, b in zip(idxs, idxs[1:]))
    distances.sort()
    cdf = DistanceCdf(count=len(distances))
    n = len(distances)
    seen = 0
    for i, d in enumerate(distances):
        seen += 1
        if i + 1 == n or distances[i + 1] != d:
            cdf.distances.append(d)
            cdf.cumulative.append(seen / n)
    return cdf
