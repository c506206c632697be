"""Window-local chain id renumbering.

Models see small integer indices, documents keep global chain ids. localize
numbers the chains visible in a context 0..N-1 by first appearance;
globalize maps predicted indices back, minting deterministic fresh ids
(e<max+1> style) for indices >= N, in order of first appearance, so repeats
of a new index corefer within the window.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .diag import Diagnostic
from .formats import AnnotatedText, TagEvent, apply_idmap

_NUMERIC_ID = re.compile(r"e(\d+)\Z")


@dataclass
class IdMap:
    """Bidirectional map between window-local indices and global chain ids."""

    local_to_global: dict[int, str] = field(default_factory=dict)
    global_to_local: dict[str, int] = field(default_factory=dict)
    n_context: int = 0

    def assign(self, chain_id: str) -> int:
        idx = self.global_to_local.get(chain_id)
        if idx is None:
            idx = len(self.local_to_global)
            self.local_to_global[idx] = chain_id
            self.global_to_local[chain_id] = idx
        return idx


class IdAllocator:
    """Mints unused global chain ids, monotonically."""

    def __init__(self, existing_ids=()):
        self.existing = set(existing_ids)
        self._next = 1
        for cid in self.existing:
            m = _NUMERIC_ID.match(cid)
            if m:
                self._next = max(self._next, int(m.group(1)) + 1)

    def fresh(self) -> str:
        while f"e{self._next}" in self.existing:
            self._next += 1
        cid = f"e{self._next}"
        self._next += 1
        self.existing.add(cid)
        return cid


def localize(context: AnnotatedText, idmap: IdMap | None = None) -> tuple[AnnotatedText, IdMap]:
    """Rewrite global chain ids as 0-based display indices by first appearance.

    An existing IdMap may be passed to keep one numbering across windows
    (document-lifetime mode); it is extended in place.
    """
    idmap = idmap if idmap is not None else IdMap()
    for ev in context.events:
        if isinstance(ev.chain, str):
            idmap.assign(ev.chain)
    idmap.n_context = len(idmap.local_to_global)
    return apply_idmap(context, idmap.global_to_local), idmap


def globalize(predicted: AnnotatedText, idmap: IdMap,
              allocator: IdAllocator) -> tuple[AnnotatedText, list[Diagnostic]]:
    """Map display indices back to global chain ids, minting fresh ids for
    indices >= n_context (gaps allowed); bad indices drop their event."""
    diags: list[Diagnostic] = []
    events: list[TagEvent] = []
    for ev in predicted.events:
        if ev.chain is None:
            events.append(ev)
            continue
        if not isinstance(ev.chain, int) or ev.chain < 0:
            diags.append(Diagnostic(
                "reindex", f"event with unusable chain index {ev.chain!r} dropped", ev.anchor))
            continue
        cid = idmap.local_to_global.get(ev.chain)
        if cid is None:
            cid = allocator.fresh()
            idmap.local_to_global[ev.chain] = cid
            idmap.global_to_local[cid] = ev.chain
        events.append(replace(ev, chain=cid))
    return AnnotatedText(list(predicted.tokens), events, predicted.fmt, predicted.breaks), diags
