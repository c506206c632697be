"""Reading and writing CoNLL-U files in forked worker processes.

Four commands import this module, when they run; no other pays for it:

- ``evaluate`` reads each ``--pred`` file in a child forked before the first
  gold document is read (``forked_readers``), so gold and prediction are
  parsed on two cores.
- ``export-train`` and ``convert`` deal a file's documents out round-robin
  to one share per CPU (``dealt``). The parent takes share 0 and forks a
  worker for each other share. Every process reads every line of the file
  and blanks those of the documents that are not its own, so the reader
  parses only its own documents, with every check, message and line number
  it has. Only each document's text crosses a pipe.
- ``annotate`` has a forked writer (``written``) read its input files,
  each once, and write its predictions. The writer sends the command only
  the words annotation reads of each document, and the command sends back
  each prediction's mentions, so no text crosses a pipe.

Every child sends one stream of pickled messages (``_fork``): a document's
payload, None at the end of a file, or the exception the child met, at its
place in file order. One reader (``_Worker.items``) takes the caller through
it a file at a time. It raises an exception where it meets it, and a child
that ended early as its ``ended`` error; one that hangs is killed when the
caller's block ends. A file is read in one process where ``_forks_for`` says
so, and where no process can be forked (``_fork`` gives None).
"""
from __future__ import annotations

import gc
import itertools
import os
import pickle
import signal
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from typing import Any, BinaryIO, NamedTuple, TextIO

from .conllu import ConlluError, Document, Sentence, Token, is_doc_header
from .pipeline import mentions_to_document

# A smaller file is read in process. A worker still saves time there (a
# third of evaluate on a 230 KB pair), but evaluate then ends within the
# 20 ms that perfbench's sampler waits for its first sample, and perfbench
# cannot time such a command yet (ROADMAP item 12). Lower this when it can.
MIN_BYTES = 1 << 20


class _Worker:
    """A forked child (``_fork``): the caller's ends of the pipe its stream
    comes down and of the one it reads ``replies`` from."""

    def __init__(self, pid: int, stream: BinaryIO, replies: BinaryIO,
                 ended: Callable[[int], str]):
        self.pid, self.stream, self.replies, self.ended = pid, stream, replies, ended
        self.status: int | None = None

    def items(self) -> Iterator[Any]:
        """The payloads of the stream's next file as they arrive; an
        exception the child sent is raised here, and a child that ended
        early is a ``ConlluError`` of ``ended(status)``."""
        while True:
            try:
                item = pickle.load(self.stream)
            except (EOFError, pickle.UnpicklingError):
                raise ConlluError(self.ended(self.reap())) from None
            if item is None:
                return
            if isinstance(item, Exception):
                raise item
            yield item

    def reply(self, message: Any) -> None:
        """Sends the child ``message``. A child that reads no more has
        stopped: the rest of its stream says why, and that is raised."""
        try:
            pickle.dump(message, self.replies)
            self.replies.flush()
        except BrokenPipeError:
            while True:
                for _ in self.items():
                    pass

    def reap(self) -> int:
        """Waits for the child to end; its exit code, negative for a signal."""
        if self.status is None:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status

    def close(self) -> None:
        """Stops the child if it is still running, and reaps it."""
        with suppress(OSError):  # what a child that is gone left unread
            self.replies.close()
        self.stream.close()
        if self.status is None:
            os.kill(self.pid, signal.SIGKILL)
        self.reap()


def _fork(produce: Callable[[int], Iterable[Any]], ended: Callable[[int], str]
          ) -> _Worker | None:
    """A child forked to send its stream, or None where no process can be
    had. The child pickles each message of ``produce(fd)`` (``fd`` is where
    it reads the worker's ``replies``) as it is made, then None, or the
    exception that stopped ``produce``, with its type, message and ``line``.
    It ends in ``os._exit``, so it never returns into the caller's frames to
    run their ``finally`` blocks or flush their buffers a second time."""
    fds: list[int] = []
    try:
        for _ in range(2):
            fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    stream_in, stream_out, replies_in, replies_out = fds
    if pid == 0:
        code = 1
        try:
            gc.freeze()  # the collector leaves the parent's objects, and so their pages, alone
            os.close(stream_in)
            os.close(replies_out)  # so a caller that is gone is an end of file here
            with open(stream_out, "wb") as pipe:
                try:
                    for item in produce(replies_in):
                        pickle.dump(item, pipe)
                        pipe.flush()
                    end = None
                except Exception as exc:  # the caller raises it where it reads it
                    end = exc
                pickle.dump(end, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(stream_out)
    os.close(replies_in)
    return _Worker(pid, open(stream_in, "rb"), open(replies_out, "wb"), ended)


def _reading(path: str) -> Callable[[int], str]:
    """What a worker reading ``path`` that ends early is reported as."""
    return lambda status: (f"{path}: the process reading it ended with status {status} "
                           "before the end of the file")


def _forks_for(path: str) -> bool:
    """Whether ``path`` is read with workers: not stdin, at least
    ``MIN_BYTES`` long, a second CPU to run on, and ``os.fork`` there with no
    other thread alive (a forked child would hold only this thread, and any
    lock another one held). A file that cannot be stat'ed is left to the
    reader to report."""
    if (path == "-" or not hasattr(os, "fork") or threading.active_count() > 1
            or _shares() < 2):
        return False
    try:
        return os.stat(path).st_size >= MIN_BYTES
    except OSError:
        return False


@contextmanager
def forked_readers(paths: list[str], read: Callable[[str], Iterator[Document]]
                   ) -> Iterator[list[Iterator[Document] | None]]:
    """For each path, the documents of ``read(path)`` as a worker forked
    here sends them, or None where the file is to be read in process (see
    ``_forks_for``; also when no process can be had). A worker sends each
    document's id, chains and warnings, not its sentences: pickling them
    costs as much as parsing them. The workers are stopped and reaped when
    the block ends."""
    workers: list[_Worker | None] = []
    try:
        workers += (
            _fork(lambda _, path=path: ((d.doc_id, d.chains, d.warnings) for d in read(path)),
                  _reading(path)) if _forks_for(path) else None
            for path in paths)
        yield [worker and (Document(doc_id, [], chains, warnings=warnings)
                           for doc_id, chains, warnings in worker.items())
               for worker in workers]
    finally:
        for worker in filter(None, workers):
            worker.close()


def _shares() -> int:
    """How many shares a file's documents are dealt into: one per CPU this
    process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _deal(lines: Iterable[str], share: int, shares: int) -> Iterator[str]:
    """``lines`` with every line of another share's document made blank (a
    blank line only ends a sentence), so line numbers stay. Document k,
    counted from 0, is share ``k % shares``'s; the preamble before the first
    is share 0's. A ``ConlluError`` from ``lines`` (a file that cannot be
    read) is raised by the share whose text it is met in. Every other share's
    lines end there, so its last document, whole by then, is still read, as
    a reader of the whole file would have read it, and comes first in turn."""
    docs, mine = 0, share == 0
    try:
        for line in lines:
            if line[:1] == "#" and is_doc_header(line[1:].strip()):
                mine = docs % shares == share
                docs += 1
            yield line if mine else ""
    except ConlluError:
        if mine:
            raise


class _Text(NamedTuple):
    """A dealt document's payload: its id, parse warnings and ``fn``'s text."""

    doc_id: str
    warnings: list[str]
    text: Iterable[str] | None


def _share(lines: Iterable[str], parse: Callable[[Iterable[str]], Iterator[Document]],
           fn: Callable[[Document], Iterable[str]], share: int, shares: int
           ) -> Iterator[_Text]:
    """The ``_Text`` of each document of one share, in file order; one share
    reads ``lines`` as they are. A document whose ``fn`` fails is the share's
    last: its text is None, and the error follows it."""
    for doc in parse(lines if shares == 1 else _deal(lines, share, shares)):
        try:
            text = fn(doc)
        except Exception:
            yield _Text(doc.doc_id, doc.warnings, None)
            raise
        yield _Text(doc.doc_id, doc.warnings, text)


@contextmanager
def dealt(path: str, lines: Callable[[str], Iterable[str]],
          parse: Callable[[Iterable[str]], Iterator[Document]],
          fn: Callable[[Document], Iterable[str]],
          check: Callable[[Iterator[_Text]], Iterator[_Text]]
          ) -> Iterator[Iterator[tuple[str, Iterable[str]]]]:
    """``(doc_id, fn(doc))`` for each document of ``parse(lines(path))``, in
    file order; ``fn`` gives the document's text in pieces.
    Where ``_forks_for(path)``, the documents are dealt into ``_shares()``
    shares: the caller's process reads share 0, left for the caller to
    consume as it writes, so no more of it is held, and a forked worker each
    other one (the caller's process where no process can be had). The shares
    are pulled in turn, one document each, only as the caller asks, so a
    fault is met in file order. Each document passes ``check`` (it has
    ``doc_id`` and ``warnings``) before ``fn``'s error on it is raised. The
    workers are stopped and reaped when the block ends."""
    shares = _shares() if _forks_for(path) else 1
    workers: list[_Worker | None] = []
    try:
        workers += (
            _fork(lambda _, share=share: _share(lines(path), parse, lambda doc: list(fn(doc)),
                                                share, shares), _reading(path))
            for share in range(1, shares))
        streams = [_share(lines(path), parse, fn, 0, shares), *(
            worker.items() if worker else _share(lines(path), parse, fn, share, shares)
            for share, worker in enumerate(workers, 1))]
        in_turn = itertools.takewhile(bool, (next(s, None) for s in itertools.cycle(streams)))
        # a document without text is followed in its stream by fn's error on it
        yield ((doc_id, next(streams[n % len(streams)]) if text is None else text)
               for n, (doc_id, _, text) in enumerate(check(in_turn)))
    finally:
        for worker in filter(None, workers):
            worker.close()


def _off_the_callers_cpu() -> None:
    """Keeps this process off the CPU its parent runs on now. A pipe wakes
    its reader on the CPU of the process that wrote to it, so a writer free
    to run anywhere shares the caller's CPU while another one idles: on a
    2-CPU VM, annotate then ran at 0.77x its speed without a writer, and at
    1.15x with the writer kept off the caller's CPU. Where the parent's CPU
    cannot be read, or is the only one, nothing changes."""
    with suppress(OSError, ValueError, IndexError):
        with open(f"/proc/{os.getppid()}/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})


def _words(doc: Document) -> tuple:
    """What annotation reads of ``doc``: its id and warnings, and for each
    sentence its id, forms, governors and empty nodes' (position, sub_index)."""
    return doc.doc_id, doc.warnings, [
        (s.sent_id, [t.form for t in s.tokens], [t.dep_head for t in s.tokens],
         [(t.position, t.sub_index) for t in s.empty_nodes]) for s in doc.sentences]


def _rebuilt(doc_id: str, warnings: list[str], sentences: list[tuple]) -> Document:
    """The document of ``_words``: enough to annotate, not to write."""
    return Document(doc_id, [
        Sentence(sent_id, list(map(Token, itertools.count(1), forms, heads)),
                 [Token(position, "_", 0, True, sub) for position, sub in empties])
        for sent_id, forms, heads, empties in sentences], warnings=warnings)


def _serve(replies: int, paths: list[str], read: Callable[[str], Iterator[Document]],
           write: Callable[[Document], object], out: TextIO) -> Iterator[Any]:
    """The writer's stream: the ``_words`` of each document ``read`` gives
    of each path, and None after each file, or the error met; then one more,
    empty, file once the thread started here to write back what the caller
    sends on ``replies`` (``_write_back``) has ended, or why it did."""
    _off_the_callers_cpu()
    held: deque[Document] = deque()
    failed: list[Exception] = []
    writing = threading.Thread(target=_write_back,
                               args=(open(replies, "rb"), held, write, out, failed))
    writing.start()
    try:
        for path in paths:
            for doc in read(path):
                if failed:  # the writing half has ended: so does reading, with why
                    raise failed[0]
                held.append(doc)  # before the caller can send its prediction
                yield _words(doc)
            yield None
    except Exception as exc:  # the caller raises it as its own reader would
        yield exc
    writing.join()
    if failed:
        raise failed[0]


def _write_back(replies: BinaryIO, held: deque[Document], write: Callable[[Document], object],
                out: TextIO, failed: list[Exception]) -> None:
    """The writer's writing half: for each ``(doc_id, mentions)`` the caller
    sends, ``write(mentions_to_document(doc, mentions))`` of the oldest
    document held, which must have that id, into ``out``'s file through the
    descriptor it shares with the caller. It ends at the caller's None, or at
    its first fault, left in ``failed``, and closes ``replies`` either way,
    so a caller that sends more finds no reader."""
    try:
        with replies:
            while (request := pickle.load(replies)) is not None:
                doc_id, mentions = request
                if not held or held[0].doc_id != doc_id:
                    raise ConlluError(f"the prediction of document {doc_id!r} "
                                      "came out of order")
                write(mentions_to_document(held.popleft(), mentions))
            out.flush()
    except Exception as exc:
        failed.append(exc)


# what a writer that ends early is reported as: it reads no one file
_WRITER_ENDED = ("the process reading the input and writing the output ended with status {} "
                 "before its end").format


@contextmanager
def written(paths: list[str], read: Callable[[str], Iterator[Document]], out: TextIO,
            write: Callable[[Document], object]
            ) -> Iterator[tuple[list[Iterator[Document] | None], Callable[[Document], object]]]:
    """``(inputs, send)``: for each path, the documents to annotate, or None
    where the caller is to read the file itself; and a callable that writes
    each prediction the block passes it, in order, as ``write`` does into
    ``out``. Where every path is one ``_forks_for``, a writer forked here
    (``_serve``) reads each path once with ``read`` and writes the
    predictions (all in process if no process can be had). Each pipe always
    has a reader, so neither one can stay full. By the end of a block that
    raises nothing everything is written. The writer is stopped and reaped
    when the block ends."""
    writer = None
    if all(map(_forks_for, paths)):
        out.flush()  # the child would write what is buffered a second time
        writer = _fork(lambda replies: _serve(replies, paths, read, write, out), _WRITER_ENDED)
    if writer is None:
        yield [None] * len(paths), write
        return

    def send(pred: Document) -> None:  # its id and mentions, chain by chain
        writer.reply((pred.doc_id, [m for c in pred.chains.values() for m in c.mentions]))

    try:
        yield [(_rebuilt(*words) for words in writer.items()) for _ in paths], send
        writer.reply(None)
        writer.replies.close()
        for _ in writer.items():  # the last file, sent once everything is written
            pass
    finally:
        writer.close()
