#!/usr/bin/env python3
"""Time ``clean`` on a completion that shares no token with its input.

    PYTHONPATH=src python3 scripts/clean_probe.py [--words 2000] [--seed 0] [--format minimal]

The input is ``--words`` random lowercase words of 3 to 8 letters on one
line; the completion is as many random uppercase words of 3 to 8 letters, so
no completion token equals an input token and the aligner's fuzzy search has
nothing to anchor on. Prints the seconds ``clean`` took. Exits 1 unless the
cleaned tokens are exactly the input tokens, a guarantee ``clean`` keeps
whatever the completion is. The time is printed, not gated: it depends on
the machine.
"""
import argparse
import random
import string
import sys
import time

from corefkit.align import clean


def words(rng: random.Random, n: int, letters: str) -> list[str]:
    return ["".join(rng.choices(letters, k=rng.randint(3, 8))) for _ in range(n)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--words", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", default="minimal",
                    choices=["crac", "explicit", "minimal", "headword"])
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    source = words(rng, args.words, string.ascii_lowercase)
    completion = words(rng, args.words, string.ascii_uppercase)
    start = time.perf_counter()
    cleaned, _ = clean(" ".join(source), " ".join(completion), args.format)
    took = time.perf_counter() - start
    print(f"clean of {args.words} disjoint words, {args.format}: {took:.2f} s")
    if cleaned.tokens != source:
        print("the cleaned tokens are not the input tokens")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
