"""Spans and counters around calls into corefkit's public functions.

Nothing under ``src/`` knows about this module. ``Tracer.install`` wraps the
functions listed in ``SPANS`` and rebinds every name in every ``corefkit``
module that refers to the original, so calls made from inside the package
(``AnnotatedText.render`` calling ``formats.render``, ``clean`` calling
``decode``) are seen too. A span holds its name, start, end, parent, thread
and cycle; spans stay in memory until ``write`` is called at the end of the
run. Self time is a span's duration minus the time its child spans on the
same thread cover. A span opened on a worker thread (``annotate --jobs 2``)
with no open span of its own thread takes the open root span, the
``cli.*`` command that started the workers, as its parent; its time is not
taken off that parent's self time, which therefore counts the wait.
"""
from __future__ import annotations

import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, function) pairs timed as spans named "<module>.<function>"
SPANS = (
    ("conllu", "parse_conllu"), ("conllu", "serialize_conllu"),
    ("pipeline", "truncate_context"), ("pipeline", "slice_annotated"),
    ("pipeline", "build_prompt"),
    ("formats", "render"), ("formats", "build_events"), ("formats", "decode"),
    ("formats", "events_to_mentions"),
    ("reindex", "localize"), ("reindex", "globalize"),
    ("align", "clean"), ("align", "align_tokens"),
    ("metrics", "score"), ("metrics", "ceaf_e"), ("metrics", "conll_f1"),
)
# called too often for a span each; only counted
COUNTED = (("align", "edit_similarity"),)

NAME, START, END, PARENT, THREAD, CYCLE, CHILD, INDEX = range(8)


def rebind(module, attr: str, replacement) -> None:
    """Point every corefkit module name bound to ``module.attr`` at
    ``replacement``."""
    original = getattr(module, attr)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "corefkit" and not mod_name.startswith("corefkit."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


class Tracer:
    """Records while ``cycle`` is not None; the cycle number tags each record."""

    def __init__(self, off_target_outputs: frozenset[str] = frozenset()):
        self.cycle: int | None = None
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.off_target_outputs = off_target_outputs
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: list | None = None  # the open span that has no parent

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        if self.cycle is not None:
            with self._lock:
                self.counts[(self.cycle, name)] += n

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs once the
        span has ended, to take counts from the call."""
        def traced(*args, **kwargs):
            if self.cycle is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            rec = [name, 0.0, 0.0, -1, threading.get_ident(), self.cycle, 0.0]
            with self._lock:
                root = self._root
                if stack:
                    rec[PARENT] = stack[-1][INDEX]
                elif root is not None:
                    rec[PARENT] = root[INDEX]
                else:
                    self._root = rec
                rec.append(len(self.spans))
                self.spans.append(rec)
            stack.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += rec[END] - rec[START]
                elif self._root is rec:
                    self._root = None
            if after is not None:
                after(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.cycle is not None:
                self.count(name + ".calls")
                self._local.counted = getattr(self._local, "counted", 0) + 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # -- what the calls tell -----------------------------------------------------

    def _after_build_prompt(self, args, result) -> None:
        self.count("pipeline.context_words", len(args[0].split()))

    def _after_decode(self, args, result) -> None:
        self._local.decoded_events = len(result[0].events)

    def _after_align_tokens(self, args, result) -> None:
        for _, _, kind in result.pairs:
            self.count(f"align.pairs.{kind}")

    def _before_clean(self, fn):
        def clean(*args, **kwargs):
            self._local.counted = 0
            self._local.decoded_events = 0
            return fn(*args, **kwargs)
        return clean

    def _after_clean(self, args, result) -> None:
        self.count("align.tags_dropped",
                   self._local.decoded_events - len(result[0].events))
        if args[1] in self.off_target_outputs:
            self.count("align.edit_similarity.off_target",
                       getattr(self._local, "counted", 0))

    def install(self) -> None:
        after = {"build_prompt": self._after_build_prompt,
                 "decode": self._after_decode,
                 "align_tokens": self._after_align_tokens,
                 "clean": self._after_clean}
        for mod_name, attr in COUNTED:
            module = sys.modules[f"corefkit.{mod_name}"]
            rebind(module, attr, self.counted(f"{mod_name}.{attr}",
                                              getattr(module, attr)))
        for mod_name, attr in SPANS:
            module = sys.modules[f"corefkit.{mod_name}"]
            fn = getattr(module, attr)
            if attr == "clean":
                fn = self._before_clean(fn)
            rebind(module, attr, self.span(f"{mod_name}.{attr}", fn,
                                           after.get(attr)))

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict[tuple[int, str], float]:
        """Summed self time per (cycle, span name)."""
        out: dict[tuple[int, str], float] = defaultdict(float)
        for rec in self.spans:
            out[(rec[CYCLE], rec[NAME])] += rec[END] - rec[START] - rec[CHILD]
        return out

    def total_times(self) -> dict[tuple[int, str, str], float]:
        """Summed duration per (cycle, root span name, span name), children
        included; a span nested in one of its own name counts once."""
        out: dict[tuple[int, str, str], float] = defaultdict(float)
        for rec in self.spans:
            outer, root = rec, rec
            while root[PARENT] >= 0:
                root = self.spans[root[PARENT]]
                if root[NAME] == rec[NAME]:
                    outer = None
                    break
            if outer is not None:
                out[(rec[CYCLE], root[NAME], rec[NAME])] += rec[END] - rec[START]
        return out

    def calls(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = defaultdict(int)
        for rec in self.spans:
            out[(rec[CYCLE], rec[NAME])] += 1
        return out

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end, parent index, thread,
        cycle (times in seconds on the run's perf_counter clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps([rec[NAME], round(rec[START], 7),
                                     round(rec[END], 7), rec[PARENT],
                                     rec[THREAD], rec[CYCLE]]) + "\n")
