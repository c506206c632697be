"""Reading CoNLL-U files in forked worker processes.

``evaluate`` reads each ``--pred`` file in a child forked before the first
gold document is read, so gold and prediction are parsed on two cores. Only
``evaluate`` imports this module, so no other command pays for it.
"""
from __future__ import annotations

import gc
import os
import pickle
import signal
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from typing import NoReturn

from .conllu import ConlluError, Document

# A smaller file is read in process. A worker still saves time there (a
# third of evaluate on a 230 KB pair), but evaluate then ends within the
# 20 ms that perfbench's sampler waits for its first sample, and perfbench
# cannot time such a command yet (ROADMAP item 12). Lower this when it can.
MIN_BYTES = 1 << 20


class _Worker:
    """A forked child that runs ``read(path)`` and sends down a pipe each
    document's id, chains and warnings as it is read, then None, or the
    error that stopped it. It runs at most a pipe's worth ahead of
    ``documents``. Sentences are not sent: pickling them costs as much as
    parsing them."""

    def __init__(self, path: str, read: Callable[[str], Iterator[Document]]):
        fd_in, fd_out = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(fd_in)
            os.close(fd_out)
            raise
        if self.pid == 0:
            os.close(fd_in)
            self._send(read, path, fd_out)
        os.close(fd_out)
        self.status: int | None = None
        self.pipe = open(fd_in, "rb")

    @staticmethod
    def _send(read: Callable[[str], Iterator[Document]], path: str, fd: int) -> NoReturn:
        """The child's whole life: it ends in ``os._exit``, so it never
        returns into the parent's frames to run their ``finally`` blocks or
        flush their buffers a second time."""
        code = 1
        try:
            gc.freeze()  # the collector leaves the parent's objects, and so their pages, alone
            with open(fd, "wb") as pipe:
                try:
                    for doc in read(path):
                        pickle.dump((doc.doc_id, doc.chains, doc.warnings), pipe)
                        pipe.flush()
                    end = None
                except Exception as exc:  # the parent raises it where it reads it
                    end = exc
                pickle.dump(end, pipe)
            code = 0
        finally:
            os._exit(code)

    def documents(self) -> Iterator[Document]:
        """Each document as it arrives, without sentences; the error the
        child met is raised here, and a child that ends early is a
        ``ConlluError``."""
        while True:
            try:
                item = pickle.load(self.pipe)
            except (EOFError, pickle.UnpicklingError):
                raise ConlluError(f"the process reading it ended with status {self.reap()} "
                                  "before the end of the file") from None
            if item is None:
                self.reap()
                return
            if isinstance(item, Exception):
                raise item
            doc_id, chains, warnings = item
            yield Document(doc_id, [], chains, warnings=warnings)

    def reap(self) -> int:
        """Waits for the child to end; its exit code, negative for a signal."""
        if self.status is None:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status

    def close(self) -> None:
        """Stops the child if it is still running, and reaps it."""
        self.pipe.close()
        if self.status is None:
            os.kill(self.pid, signal.SIGKILL)
        self.reap()


def _forks_for(path: str) -> bool:
    """Whether ``path`` is read in a worker: not stdin, at least
    ``MIN_BYTES`` long, and ``os.fork`` there with no other thread alive (a
    forked child would hold only this thread, and any lock another one
    held). A file that cannot be stat'ed is left to the reader to report."""
    if path == "-" or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    try:
        return os.stat(path).st_size >= MIN_BYTES
    except OSError:
        return False


@contextmanager
def forked_readers(paths: list[str], read: Callable[[str], Iterator[Document]]
                   ) -> Iterator[list[Iterator[Document] | None]]:
    """For each path, the documents of ``read(path)`` as a worker started
    here sends them, or None where the file is to be read in process (see
    ``_forks_for``; also when no process can be had). The workers are
    stopped and reaped when the block ends."""
    workers: list[_Worker] = []
    streams: list[Iterator[Document] | None] = []
    try:
        for path in paths:
            stream = None
            if _forks_for(path):
                with suppress(OSError):
                    workers.append(_Worker(path, read))
                    stream = workers[-1].documents()
            streams.append(stream)
        yield streams
    finally:
        for worker in workers:
            worker.close()
