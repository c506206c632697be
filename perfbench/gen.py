"""Write one workload's inputs, made from its seed, into a directory.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes ``corpus.conllu`` (gold documents from ``corefkit.synth``),
``gold_pairs.jsonl`` (the gold prompt/completion pair of every window),
``replay.jsonl`` for the replay workload (gold completions passed through
``synth.perturb``, with a fixed share swapped for off-target text), and
``inputs.json`` with the sizes and the off-target windows. The same seed
gives byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import random
import string
from pathlib import Path

from spec import WORKLOADS, Workload

from corefkit.cli import JobConfig, pipeline_config
from corefkit.conllu import Corpus, serialize_corpus
from corefkit.pipeline import export_training_pairs, write_pairs
from corefkit.synth import SynthConfig, perturb, random_document


def documents(w: Workload, rng: random.Random):
    if w.doc_sentences:
        shapes = [(n, n) for n in w.doc_sentences]
    else:
        shapes = [w.sentences] * w.docs
    return [random_document(f"d{i + 1}", SynthConfig(
                sentences=shape, chains=w.chains,
                mentions_per_chain=w.mentions_per_chain), rng)
            for i, shape in enumerate(shapes)]


def _fresh_word(rng: random.Random, taken: set[str]) -> str:
    while True:
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 9)))
        if word not in taken:
            return word


def off_target(completion: str, rng: random.Random) -> str:
    """Keep the tags and line structure of ``completion`` but replace every
    word by a random lowercase string that is none of the window's words."""
    words = {a for a in completion.split() if not a.startswith("<")}
    return "\n".join(
        " ".join(a if a.startswith("<") else _fresh_word(rng, words)
                 for a in line.split())
        for line in completion.splitlines())


def generate(w: Workload, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    docs = documents(w, random.Random(f"{w.name}:{seed}:corpus"))
    (out / "corpus.conllu").write_text(serialize_corpus(docs), encoding="utf-8")
    cfg = pipeline_config(JobConfig(format=w.fmt, preset=w.preset))
    pairs = export_training_pairs(Corpus([("corpus", docs)]), cfg)
    write_pairs(str(out / "gold_pairs.jsonl"), pairs)

    off: list[tuple[str, int]] = []
    if w.backend == "replay":
        rng = random.Random(f"{w.name}:{seed}:completions")
        picked = set(rng.sample(range(len(pairs)),
                                round(w.off_target_share * len(pairs))))
        with open(out / "replay.jsonl", "w", encoding="utf-8") as fh:
            for k, p in enumerate(pairs):
                if k in picked:
                    text = off_target(p.completion, rng)
                    off.append((p.doc_id, p.window_index))
                else:
                    text = perturb(p.completion, rng)
                fh.write(json.dumps({"doc_id": p.doc_id,
                                     "window_index": p.window_index,
                                     "completion": text}) + "\n")

    info = {
        "workload": w.name, "seed": seed,
        "docs": len(docs),
        "sentences": sum(len(d.sentences) for d in docs),
        "tokens": sum(len(s.tokens) for d in docs for s in d.sentences),
        "mentions": sum(len(d.mentions()) for d in docs),
        "windows": len(pairs),
        "preset": w.preset, "format": w.fmt, "backend": w.backend,
        "jobs": w.jobs,
        "perturb": "synth.perturb defaults" if w.backend == "replay" else None,
        "off_target_windows": [list(r) for r in off],
        "latency_ms": w.latency_ms, "fail_share": w.fail_share,
    }
    (out / "inputs.json").write_text(json.dumps(info, indent=1), encoding="utf-8")
    return info


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(WORKLOADS[args.workload], args.seed, Path(args.out))


if __name__ == "__main__":
    main()
