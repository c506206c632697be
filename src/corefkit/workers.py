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
  it has. Each process turns its documents into text, and only that text
  crosses a pipe.
- ``annotate`` has a forked writer (``written``) read its input files,
  each once, and write its predictions. The writer sends the command only
  the words annotation reads of each document, and the command sends back
  each prediction's mentions, so the parsing and the output are done on a
  second core and no text crosses a pipe.

A file is read in one process where ``_forks_for`` says so, and when no
process can be forked.
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
from typing import Any, BinaryIO, NamedTuple, NoReturn, TextIO

from .conllu import ConlluError, Document, Sentence, Token, is_doc_header
from .pipeline import mentions_to_document

# A smaller file is read in process. A worker still saves time there (a
# third of evaluate on a 230 KB pair), but evaluate then ends within the
# 20 ms that perfbench's sampler waits for its first sample, and perfbench
# cannot time such a command yet (ROADMAP item 12). Lower this when it can.
MIN_BYTES = 1 << 20


class _Worker:
    """A forked child that sends each item of ``produce()`` down a pipe as
    it is made, then None, or the exception that stopped it, pickled with
    its type, message and ``line``. It runs at most a pipe's worth ahead of
    ``items``."""

    ENDED = "the process reading it ended with status {} before the end of the file"

    def __init__(self, produce: Callable[[], Iterable[Any]]):
        fd_in, fd_out = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(fd_in)
            os.close(fd_out)
            raise
        if self.pid == 0:
            os.close(fd_in)
            self._send(produce, fd_out)
        os.close(fd_out)
        self.status: int | None = None
        self.pipe = open(fd_in, "rb")

    @staticmethod
    def _send(produce: Callable[[], Iterable[Any]], fd: int) -> NoReturn:
        """The child's whole life: it ends in ``os._exit``, so it never
        returns into the parent's frames to run their ``finally`` blocks or
        flush their buffers a second time."""
        code = 1
        try:
            gc.freeze()  # the collector leaves the parent's objects, and so their pages, alone
            with open(fd, "wb") as pipe:
                try:
                    for item in produce():
                        pickle.dump(item, pipe)
                        pipe.flush()
                    end = None
                except Exception as exc:  # the parent raises it where it reads it
                    end = exc
                pickle.dump(end, pipe)
            code = 0
        finally:
            os._exit(code)

    def items(self) -> Iterator[Any]:
        """Each item as it arrives; the error the child met is raised here,
        and a child that ends early is a ``ConlluError``."""
        while True:
            try:
                item = pickle.load(self.pipe)
            except (EOFError, pickle.UnpicklingError):
                raise ConlluError(self.ENDED.format(self.reap())) from None
            if item is None:
                self.reap()
                return
            if isinstance(item, Exception):
                raise item
            yield item

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
    """For each path, the documents of ``read(path)`` as a worker started
    here sends them, or None where the file is to be read in process (see
    ``_forks_for``; also when no process can be had). A worker sends each
    document's id, chains and warnings, not its sentences: pickling them
    costs as much as parsing them. The workers are stopped and reaped when
    the block ends."""
    workers: list[_Worker] = []
    streams: list[Iterator[Document] | None] = []
    try:
        for path in paths:
            stream = None
            if _forks_for(path):
                with suppress(OSError):
                    workers.append(_Worker(lambda path=path: (
                        (d.doc_id, d.chains, d.warnings) for d in read(path))))
                    stream = (Document(doc_id, [], chains, warnings=warnings)
                              for doc_id, chains, warnings in workers[-1].items())
            streams.append(stream)
        yield streams
    finally:
        for worker in workers:
            worker.close()


class _Done(NamedTuple):
    """A document as its share hands it on: its id and parse warnings, and
    the text the share's function made of it, or the exception it raised."""

    doc_id: str
    warnings: list[str]
    value: Iterable[str] | Exception


def _shares() -> int:
    """How many shares a file's documents are dealt into: one per CPU this
    process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _deal(lines: Iterable[str], share: int, shares: int, fault: list[ConlluError]
          ) -> Iterator[str]:
    """``lines`` with every line of another share's document made blank (a
    blank line only ends a sentence), so line numbers stay. Document k,
    counted from 0, is share ``k % shares``'s; the preamble before the first
    is share 0's. A ``ConlluError`` from ``lines`` (a file that cannot be
    read) met in this share's own text is raised; met in another share's
    document, it goes into ``fault`` and the lines end, so the share's last
    document, whole by then, is still read, as a reader of the whole file
    would have read it."""
    docs, mine = 0, share == 0
    try:
        for line in lines:
            if line[:1] == "#" and is_doc_header(line[1:].strip()):
                mine = docs % shares == share
                docs += 1
            yield line if mine else ""
    except ConlluError as exc:
        if mine:
            raise
        fault.append(exc)


def _share(lines: Iterable[str], parse: Callable[[Iterable[str]], Iterator[Document]],
           fn: Callable[[Document], Iterable[str]], share: int, shares: int,
           sent: bool = False) -> Iterator[_Done]:
    """``fn`` of each document of one share, in file order; a document whose
    ``fn`` fails is the share's last. One share reads ``lines`` as they are.
    A share ``sent`` down a pipe lists each document's text; otherwise it is
    left for the caller to consume as it writes, so no more of it is held."""
    fault: list[ConlluError] = []
    for doc in parse(lines if shares == 1 else _deal(lines, share, shares, fault)):
        try:
            value = list(fn(doc)) if sent else fn(doc)
        except Exception as exc:  # raised when this document's turn comes
            yield _Done(doc.doc_id, doc.warnings, exc)
            return
        yield _Done(doc.doc_id, doc.warnings, value)
    if fault:
        raise fault[0]


@contextmanager
def dealt(path: str, lines: Callable[[str], Iterable[str]],
          parse: Callable[[Iterable[str]], Iterator[Document]],
          fn: Callable[[Document], Iterable[str]],
          check: Callable[[Iterator[_Done]], Iterator[_Done]]
          ) -> Iterator[Iterator[tuple[str, Iterable[str]]]]:
    """``(doc_id, fn(doc))`` for each document of ``parse(lines(path))``, in
    file order; ``fn`` gives the document's text in pieces.
    Where ``_forks_for(path)``, the documents are dealt into ``_shares()``
    shares: the caller's process reads share 0 and a forked worker each
    other one (all in process if a fork fails). The shares are pulled in
    turn, one document each, only as the caller asks, so a fault is met in
    file order. Each document passes ``check`` (it has ``doc_id`` and
    ``warnings``) before ``fn``'s error on it is raised. The workers are
    stopped and reaped when the block ends."""
    shares = _shares() if _forks_for(path) else 1
    workers: list[_Worker] = []
    try:
        try:
            for share in range(1, shares):
                workers.append(_Worker(lambda share=share: _share(
                    lines(path), parse, fn, share, shares, sent=True)))
        except OSError:
            for worker in workers:
                worker.close()
            workers, shares = [], 1
        streams = [_share(lines(path), parse, fn, 0, shares),
                   *(worker.items() for worker in workers)]
        yield _values(check(_in_turn(streams)))
    finally:
        for worker in workers:
            worker.close()


def _in_turn(streams: list[Iterator[_Done]]) -> Iterator[_Done]:
    """One item from each stream in turn, until one of them ends."""
    for stream in itertools.cycle(streams):
        done = next(stream, None)
        if done is None:
            return
        yield done


def _values(docs: Iterable[_Done]) -> Iterator[tuple[str, Iterable[str]]]:
    """Each item's id and text; the error ``fn`` raised on it is raised here."""
    for done in docs:
        if isinstance(done.value, Exception):
            raise done.value
        yield done.doc_id, done.value


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


# what the writer sends the caller after the documents of each input file
_EOF = "end of file"


class _Fault(NamedTuple):
    """The error the writer's reader raised, sent where it was met."""

    error: Exception


class _Stopped(Exception):
    """What ended a writer, met where the caller reads documents; ``written``
    raises ``error`` itself, so no file's name is put on it."""

    def __init__(self, error: Exception):
        self.error = error


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


class _Writer(_Worker):
    """A forked child that reads the input files, each once, and writes the
    predictions the caller sends back. Its main thread reads with ``read``,
    holds each document and sends the caller its ``_words``, ``_EOF`` after
    each file, or a ``_Fault``. A thread started in the child takes each
    ``(doc_id, mentions)`` the caller sends and writes
    ``write(mentions_to_document(doc, mentions))`` of the oldest document
    held, which must have that id, into ``out``'s file through the descriptor
    it shares with the caller. Each pipe always has a reader, so neither one
    can stay full, and no text crosses a pipe."""

    ENDED = ("the process reading the input and writing the output ended with status {} "
             "before its end")

    def __init__(self, paths: list[str], read: Callable[[str], Iterator[Document]],
                 write: Callable[[Document], object], out: TextIO):
        out.flush()  # the child would write what is buffered a second time
        fd_in, fd_out = os.pipe()
        try:
            super().__init__(lambda: self._serve(fd_in, fd_out, paths, read, write, out))
        except OSError:
            os.close(fd_out)
            raise
        finally:
            os.close(fd_in)
        self.requests = open(fd_out, "wb")

    @staticmethod
    def _serve(fd_in: int, fd_out: int, paths: list[str],
               read: Callable[[str], Iterator[Document]],
               write: Callable[[Document], object], out: TextIO) -> Iterator[Any]:
        """The child's work; it ends once its writing half has."""
        os.close(fd_out)  # so a caller that is gone is an end of file here
        _off_the_callers_cpu()
        held: deque[Document] = deque()
        failed: list[Exception] = []
        writing = threading.Thread(target=_Writer._write_back,
                                   args=(open(fd_in, "rb"), held, write, out, failed))
        writing.start()
        yield from _Writer._read(paths, read, held, failed)
        writing.join()
        if failed:
            raise failed[0]

    @staticmethod
    def _read(paths: list[str], read: Callable[[str], Iterator[Document]],
              held: deque[Document], failed: list[Exception]) -> Iterator[Any]:
        """The child's reading half: what it sends the caller, until the
        input ends, the reader fails or the writing half has."""
        try:
            for path in paths:
                for doc in read(path):
                    if failed:
                        return
                    held.append(doc)  # before the caller can send its prediction
                    yield _words(doc)
                yield _EOF
        except Exception as exc:  # the caller raises it as its own reader would
            yield _Fault(exc)

    @staticmethod
    def _write_back(requests: BinaryIO, held: deque[Document],
                    write: Callable[[Document], object], out: TextIO,
                    failed: list[Exception]) -> None:
        """The child's writing half, on a thread of its own: it ends at the
        caller's None, or at its first fault, left in ``failed``, and closes
        ``requests`` either way, so a caller that sends more finds no reader."""
        try:
            with requests:
                while (request := pickle.load(requests)) is not None:
                    doc_id, mentions = request
                    if not held or held[0].doc_id != doc_id:
                        raise ConlluError(f"the prediction of document {doc_id!r} "
                                          "came out of order")
                    write(mentions_to_document(held.popleft(), mentions))
                out.flush()
        except Exception as exc:
            failed.append(exc)

    def documents(self) -> Iterator[Document]:
        """The documents of the next input file as the writer reads them; its
        reader's error is raised as it is, and anything else that ends the
        writer as ``_Stopped``."""
        try:
            while type(item := pickle.load(self.pipe)) is tuple:
                yield _rebuilt(*item)
        except (EOFError, pickle.UnpicklingError):
            item = ConlluError(self.ENDED.format(self.reap()))
        if isinstance(item, _Fault):
            raise item.error
        if item != _EOF:
            raise _Stopped(item)

    def send(self, pred: Document) -> None:
        """Hands ``pred`` on as its id and mentions, chain by chain; a writer
        that has stopped raises what stopped it."""
        try:
            pickle.dump((pred.doc_id, [m for c in pred.chains.values() for m in c.mentions]),
                        self.requests)
            self.requests.flush()
        except BrokenPipeError:
            self.finish()  # raises what ended the writer

    def finish(self) -> None:
        """Sends the end and waits until everything sent has been written."""
        with suppress(BrokenPipeError):
            pickle.dump(None, self.requests)
            self.requests.close()
        for _ in self.items():
            pass

    def close(self) -> None:
        with suppress(OSError):  # what a writer that is gone left unread
            self.requests.close()
        super().close()


@contextmanager
def written(paths: list[str], read: Callable[[str], Iterator[Document]], out: TextIO,
            write: Callable[[Document], object]
            ) -> Iterator[tuple[list[Iterator[Document] | None], Callable[[Document], object]]]:
    """``(inputs, send)``: for each path, the documents to annotate, or None
    where the caller is to read the file itself; and a callable that writes
    each prediction the block passes it, in order, as ``write`` does into
    ``out``. Where every path is one ``_forks_for``, a ``_Writer`` forked here
    reads each path once with ``read`` and writes the predictions (all is done
    in process if no process can be had); by the end of a block that raises
    nothing it has written everything. It is stopped and reaped when the
    block ends."""
    writer = None
    if all(map(_forks_for, paths)):
        with suppress(OSError):
            writer = _Writer(paths, read, write, out)
    if writer is None:
        yield [None] * len(paths), write
        return
    try:
        yield [writer.documents() for _ in paths], writer.send
        writer.finish()
    except _Stopped as stopped:
        raise stopped.error from None
    finally:
        writer.close()
