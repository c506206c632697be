#!/usr/bin/env python3
"""Peak memory of export-train, annotate, evaluate, convert and decode at
two corpus sizes.

    PYTHONPATH=src python3 scripts/memory_probe.py [--docs 1000 4000] [--limit 1.1]

For each size n, writes ``synth.random_corpus(n, SynthConfig(seed=5,
sentences=(3, 12)))`` to a temporary directory, then runs ``export-train``,
``annotate --backend oracle`` on the exported pairs, ``evaluate`` of that
prediction against the gold, ``convert --format minimal`` of the gold and
``decode --format minimal`` of that text, each in a fresh process, and
prints each command's peak resident set size. Exits 1 when a command's peak at the
largest size is more than ``--limit`` times its peak at the smallest: the
commands read one document at a time, so their memory should not follow the
corpus. This process imports nothing from corefkit and writes the corpora in
a child, so its own small footprint is all a child can inherit.

Both probe sizes are over ``corefkit.workers.MIN_BYTES`` (1 MiB; the gold
and the prediction are about 1.9 MB at 1000 documents), so on a machine with
two CPUs or more every command but ``decode`` forks at both: ``evaluate``
parses the prediction in a worker process, ``export-train`` and ``convert``
deal the gold's documents out to one process per CPU, forking a worker for
each but the first, and ``annotate`` forks a writer that reads the gold
once, sends the command each document's words and writes the prediction.
Every worker sends one stream of messages that the command reads one
document at a time (``corefkit.workers``), and each command reaps its
workers. The peak that ``os.wait4`` reports for
a command covers those workers too: on Linux it is the largest peak of the
process and of every descendant it reaped (the largest, not their sum). So
each of those figures is the peak of whichever of the command's processes
peaked highest: a process of 14 MB that forks and reaps a child touching
120 MB reads as 130 MB (Linux 6.18).
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WRITE_CORPUS = """\
import sys
from corefkit.conllu import serialize_corpus
from corefkit.synth import SynthConfig, random_corpus
[(_, docs)] = random_corpus(int(sys.argv[1]), SynthConfig(seed=5, sentences=(3, 12))).datasets
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    fh.writelines(map(serialize_corpus, ([d] for d in docs)))
"""


def peak_mb(argv: list[str]) -> float:
    """Peak RSS of ``python -m corefkit ARGV``; a failed run ends the probe."""
    proc = subprocess.Popen([sys.executable, "-m", "corefkit", *argv],
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"corefkit {' '.join(argv)} exited with {proc.returncode}")
    return usage.ru_maxrss / 1024  # kilobytes on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--docs", type=int, nargs="+", default=[1000, 4000])
    ap.add_argument("--limit", type=float, default=1.1)
    args = ap.parse_args(argv)
    peaks: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.docs:
            gold, pairs, pred, text = (
                str(Path(tmp) / f"{name}{n}{ext}") for name, ext in
                (("gold", ".conllu"), ("pairs", ".jsonl"), ("pred", ".conllu"), ("text", ".txt")))
            subprocess.run([sys.executable, "-c", WRITE_CORPUS, str(n), gold], check=True)
            for name, command in (
                    ("export-train", ["export-train", gold, "-o", pairs]),
                    ("annotate", ["annotate", gold, "--backend", "oracle",
                                  "--oracle", pairs, "-o", pred]),
                    ("evaluate", ["evaluate", "--gold", gold, "--pred", pred]),
                    ("convert", ["convert", gold, "--format", "minimal", "-o", text]),
                    ("decode", ["decode", text, "--format", "minimal"])):
                peaks.setdefault(name, []).append(peak_mb(command))
    print("command       " + "".join(f"{n:>10}" for n in args.docs) + "     ratio")
    worst = 0.0
    for name, mbs in peaks.items():
        ratio = mbs[-1] / mbs[0]
        worst = max(worst, ratio)
        print(f"{name:<14}" + "".join(f"{mb:>8.1f}MB" for mb in mbs) + f"{ratio:>10.3f}")
    if worst > args.limit:
        print(f"peak RSS grew {worst:.3f}x with the corpus (limit {args.limit}x)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
