#!/usr/bin/env python3
"""Closed-loop demo on synthetic documents: export gold training pairs, let
the oracle backend replay them through the windowed pipeline, then score the
result against the gold it came from. A healthy install prints 100.00.

    python3 scripts/oracle_demo.py --docs 50 --format crac --jobs 4
"""
import argparse
import sys

from corefkit.conllu import Corpus
from corefkit.metrics import conll_f1, density
from corefkit.pipeline import (OracleBackend, PipelineConfig, annotate_corpus,
                               export_training_pairs)
from corefkit.synth import SynthConfig, random_corpus


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--docs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sentences", type=int, default=None,
                    help="sentences per document (default: 3 to 8 at random)")
    ap.add_argument("--format", default="headword",
                    choices=["crac", "explicit", "minimal", "headword"])
    ap.add_argument("--sentences-per-batch", type=int, default=4)
    ap.add_argument("--context-budget", type=int, default=250)
    ap.add_argument("--no-reindex", action="store_true",
                    help="one chain numbering per document, not per window")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)

    cfg = PipelineConfig(fmt=args.format,
                         sentences_per_batch=args.sentences_per_batch,
                         context_budget=args.context_budget,
                         reindex=not args.no_reindex)
    synth = SynthConfig(p_zero=0.2, p_discontinuous=0.1, seed=args.seed)
    if args.sentences is not None:
        synth.sentences = (args.sentences, args.sentences)
    gold = random_corpus(args.docs, synth)
    pairs = export_training_pairs(gold, cfg)
    print(f"{len(pairs)} training pairs exported "
          f"(format={args.format}, batch={cfg.sentences_per_batch}, "
          f"context={cfg.context_budget}, reindex={cfg.reindex})")
    print("--- first pair " + "-" * 50)
    print(pairs[0].prompt + pairs[0].completion)
    print("-" * 65)

    pred, reports = annotate_corpus(gold, OracleBackend(pairs), cfg,
                                    jobs=args.jobs)
    skipped = sum(1 for r in reports if not r.annotated)
    print(f"{len(reports)} windows annotated, {skipped} skipped")

    print(conll_f1(gold, pred).to_table())
    dens = density(gold, pred)
    for name, entry in dens.per_dataset.items():
        print(f"{name}: {entry['gold_per_100']:.2f} gold vs "
              f"{entry['pred_per_100']:.2f} predicted mentions per 100 tokens")
    return 1 if skipped else 0


if __name__ == "__main__":
    sys.exit(main())
