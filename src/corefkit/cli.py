"""Command-line entry points.

    corefkit convert       CoNLL-U -> inline annotated text
    corefkit decode        inline annotated text -> CoNLL-U
    corefkit clean         project noisy model output onto its input text
    corefkit annotate      run the windowed pipeline over CoNLL-U documents
    corefkit evaluate      score predictions against gold CoNLL-U
    corefkit stats         mention density and antecedent-distance figures
    corefkit export-train  gold prompt/completion pairs as JSONL

Every command reads `-` as stdin; `-o` (default `-`) and `--diagnostics`
both write `-` as stdout. Input and output are UTF-8 whatever the locale; a
byte that is not UTF-8 is named by its line and byte offset in every input:
files, stdin, pipes, and --replay/--oracle records. Options may come from a
JSON config file (--config); unknown keys there are an error, and explicit
command-line flags win over the file. Exit status: 0 success, 1 usage or
configuration problem (an output path that cannot be written included), 2
malformed data (an input that cannot be read or is not UTF-8 included), 3
backend failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import errno
import itertools
import json
import os
import shutil
import sys
import tempfile
import threading
from collections.abc import Callable, Iterable, Iterator
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .conllu import (ConlluError, Corpus, Document, Sentence, Token, iter_conllu,
                     mentions_to_document, serialize_conllu)
from .formats import (Format, FormatError, build_events, decode, events_to_mentions,
                      render)

# Each command imports the other modules it runs (pipeline, align, reindex,
# metrics, workers) when it runs, so importing this module loads only conllu
# and formats besides. perfbench's Tracer.install finds the modules it wraps
# in sys.modules only because its untraced cycles have run export-train,
# annotate and evaluate by then.
if TYPE_CHECKING:
    from .pipeline import ModelBackend, PipelineConfig

# the --preset choices: pipeline.PRESETS's names, sorted, named here so that
# no parser needs pipeline
PRESET_NAMES = ["large-infer", "large-train", "small"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- config --------------------------------------------------------------------

@dataclass
class JobConfig:
    """Everything a pipeline run needs except the auth token, which only
    ever comes from the environment variable named by ``token_env``."""

    format: str = "headword"
    preset: str | None = None
    sentences_per_batch: int | None = None
    context_budget: int | None = None
    fuzzy_threshold: float | None = None
    reindex: bool = True
    retries: int = 2
    backend: str = "empty"
    url: str | None = None
    model: str | None = None
    max_tokens: int = 2048
    timeout: float = 120.0
    token_env: str = "COREFKIT_API_TOKEN"
    replay: str | None = None
    oracle: str | None = None
    jobs: int = 1


# the JSON values each JobConfig field type accepts; an integer stands for a float
_JSON_TYPES = {"str": {str}, "str | None": {str, type(None)}, "int": {int},
               "int | None": {int, type(None)}, "float": {int, float},
               "float | None": {int, float, type(None)}, "bool": {bool}}


def load_job_config(path: str | None, overrides: dict) -> JobConfig:
    """Defaults, then the JSON file at ``path``, then every ``overrides``
    entry that names a JobConfig field and is not None (parsed flags
    qualify as they are: their ``dest``s are the field names)."""
    job = JobConfig()
    known = {f.name: f.type for f in dataclasses.fields(JobConfig)}
    if path:
        try:
            raw = json.loads(_read_text(path, UsageError))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise UsageError(f"config {path}: expected a JSON object")
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise UsageError(
                f"config {path}: unknown keys {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})")
        for key, value in raw.items():
            if type(value) not in _JSON_TYPES[known[key]]:
                raise UsageError(f"config {path}: {key} must be {known[key]}, "
                                 f"not {json.dumps(value)}")
            setattr(job, key, value)
    for key in known:
        if overrides.get(key) is not None:
            setattr(job, key, overrides[key])
    return job


def pipeline_config(job: JobConfig) -> PipelineConfig:
    from .pipeline import PRESETS, PipelineConfig
    if job.preset is not None and job.preset not in PRESETS:
        raise UsageError(f"unknown preset {job.preset!r} "
                         f"(choose from {', '.join(sorted(PRESETS))})")
    changes = {"fmt": job.format, "sentences_per_batch": job.sentences_per_batch,
               "context_budget": job.context_budget,
               "fuzzy_threshold": job.fuzzy_threshold, "reindex": job.reindex,
               "retries": job.retries}
    try:
        return dataclasses.replace(
            PRESETS.get(job.preset) or PipelineConfig(),
            **{k: v for k, v in changes.items() if v is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def build_backend(job: JobConfig) -> ModelBackend:
    from .pipeline import EmptyBackend, HttpBackend, OracleBackend
    if job.backend == "empty":
        return EmptyBackend()
    if job.backend in ("replay", "oracle"):
        path = getattr(job, job.backend)  # job.replay or job.oracle
        if not path:
            raise UsageError(f"--{job.backend} PATH is required for the {job.backend} backend")
        replay = job.backend == "replay"
        try:
            return OracleBackend(path, replay=replay)
        except (OSError, ValueError) as exc:
            raise ConlluError(f"--{job.backend} {path}: {exc}") from exc
    if job.backend == "http":
        if not job.url or not job.model:
            raise UsageError("--url and --model are required for the http backend")
        try:
            return HttpBackend(job.url, job.model, max_tokens=job.max_tokens,
                               timeout=job.timeout, token_env=job.token_env)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown backend {job.backend!r}")


# -- small I/O helpers -----------------------------------------------------------

def _read_text(path: str, error: type[Exception] = ConlluError) -> str:
    """The text at ``path`` (stdin for ``-``), as ``_lines`` reads it; an
    unreadable path or one that is not UTF-8 raises ``error``."""
    try:
        return "".join(_lines(path, keepends=True))
    except _Unreadable as exc:
        raise error(str(exc)) from exc


@contextmanager
def _output(path: str | None) -> Iterator[TextIO | None]:
    """The one output writer: a temporary file for a command to write its
    output into as it goes, its UTF-8 bytes copied to ``path`` (stdout for
    ``-``, whatever the locale) only if the block ends without an error. So
    output takes no memory, and a data error found late leaves none. An
    unwritable path, the empty one included, is a usage error; a failed write
    to stdout is left to ``main``. No ``path``, no file: the block gets None."""
    if path is None:
        yield None
        return
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        yield spool
        spool.seek(0)
        try:
            with nullcontext(sys.stdout.buffer) if path == "-" else open(path, "wb") as fh:
                shutil.copyfileobj(spool.buffer, fh)
                fh.flush()
        except OSError as exc:
            if path == "-":
                raise
            raise UsageError(f"cannot write {path}: {exc}") from exc


def _dataset_id(path: str) -> str:
    return "stdin" if path == "-" else Path(path).stem


def _shown(path: str) -> str:
    """``path`` as messages name it."""
    return "<stdin>" if path == "-" else path


class _Unreadable(ConlluError):
    """An input that cannot be read as UTF-8 text; the message names it."""


def _lines(path: str, keepends: bool = False) -> Iterator[str]:
    """The lines of the text at ``path`` (stdin for ``-``) as
    ``str.splitlines`` gives them. Every input is read here: as bytes, a
    block at a time, each block completed to a line end, so no line is split
    across two, and decoded as strict UTF-8 whatever the locale. So a byte
    that is not UTF-8 is named by its line and its offset in the input, on
    the first pass, in a file, stdin or a pipe alike. A leading byte-order
    mark is dropped; offsets still count its bytes."""
    lines = offset = 0  # before the block
    try:
        if path == "-" and sys.stdin is None:  # closed, so Python gave it no object
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
            while block := fh.read(1 << 16):
                block += fh.readline()
                try:
                    done = block.decode().splitlines(keepends)
                except UnicodeDecodeError as exc:  # all before exc.start decodes
                    line = lines + len((block[:exc.start].decode() + "?").splitlines())
                    raise _Unreadable(
                        f"cannot read {_shown(path)}: 'utf-8' codec can't decode byte "
                        f"0x{block[exc.start]:02x} on line {line}, at byte offset "
                        f"{offset + exc.start}: {exc.reason}") from exc
                if not offset and done and done[0].startswith("\ufeff"):  # a byte-order mark
                    done[0] = done[0][1:]
                yield from done
                lines, offset = lines + len(done), offset + len(block)
    except OSError as exc:
        raise _Unreadable(f"cannot read {_shown(path)}: {exc}") from exc


def _parsed(path: str, lines: Iterable[str] | None = None) -> Iterator[Document]:
    """``iter_conllu`` of ``lines`` (by default, those of the file at
    ``path``), its error on a malformed line naming the file; an unreadable
    file's error names it already."""
    try:
        yield from iter_conllu(_lines(path) if lines is None else lines)
    except _Unreadable:
        raise
    except ConlluError as exc:
        raise ConlluError(f"{_shown(path)}: {exc}") from exc


def _read_documents(path: str, docs: Iterator[Document] | None = None) -> Iterator[Document]:
    """The documents of one file (``docs``, else ``_parsed(path)``), read
    one at a time: a repeated id is refused, and each parse warning goes to
    stderr, as its document is read. An error ``docs`` raises passes as it
    is: a forked reader's names its file, or no file where it reads none."""
    name = _shown(path)
    ids: set[str] = set()
    for doc in _parsed(path) if docs is None else docs:
        if doc.doc_id in ids:
            raise ConlluError(f"{name}: document id {doc.doc_id!r} appears more than once")
        ids.add(doc.doc_id)
        for w in doc.warnings:
            print(f"warning: {name}: {w}", file=sys.stderr)
        yield doc


def _each_document(path: str, fn: Callable[[Document], Iterable[str]]):
    """A block giving ``(doc_id, fn(doc))`` for each document of one file, in
    file order, as ``_read_documents`` reads them, a ``FormatError`` naming
    the file and the document; a large file's documents are dealt out to
    forked workers (``workers.dealt``)."""
    from .workers import dealt

    def named(doc: Document) -> Iterable[str]:
        try:
            return fn(doc)
        except FormatError as exc:
            raise FormatError(f"{_shown(path)}: document {doc.doc_id!r}: {exc}") from exc

    return dealt(path, _lines, lambda lines: _parsed(path, lines), named,
                 lambda docs: _read_documents(path, docs))


# -- commands --------------------------------------------------------------------

def cmd_convert(args) -> int:
    from .reindex import IdMap
    fmt = Format(args.format)

    def as_text(doc: Document) -> list[str]:
        annotated = build_events(doc.sentences, doc.mentions(), fmt)
        idmap = IdMap()
        # convert output numbers chains from 1; prompts number them from 0
        return [render(annotated, index=lambda c: idmap.assign(c) + 1)]

    def rendered() -> Iterator[tuple[str, list[str]]]:
        for path in args.input:
            with _each_document(path, as_text) as texts:
                yield from texts

    with closing(rendered()) as blocks:
        # a second document means headers; it is looked for only once the
        # first is rendered, so the first fault in file order is the one reported
        ahead = list(itertools.islice(blocks, 2))
        with _output(args.output) as out:
            for n, (doc_id, [text]) in enumerate(itertools.chain(ahead, blocks)):
                out.write(("\n" if n else "") + (f"# doc = {doc_id}\n" if len(ahead) > 1 else "")
                          + text)
            out.write("\n")
    return 0


def cmd_decode(args) -> int:
    fmt = Format(args.format)
    with _output(args.diagnostics) as diags, _output(args.output) as out:

        def blocks(lines: Iterator[str]) -> Iterator[Document]:
            # one document per "# doc = ID" block, made once the next header
            # (or the one appended to the input) arrives
            doc, mentions = Document(args.doc_id), []
            for line in itertools.chain(lines, ["# doc = "]):
                if line.startswith("# doc = "):
                    if doc.sentences:
                        yield mentions_to_document(doc, [
                            dataclasses.replace(m, chain_id=f"e{m.chain_id}") for m in mentions])
                    doc, mentions = Document(line[len("# doc = "):].strip()), []
                elif line.strip():
                    annotated, found = decode(line, fmt)
                    li = len(doc.sentences)
                    tokens = [Token(p + 1, form) for p, form in enumerate(annotated.tokens)]
                    doc.sentences.append(Sentence(f"s{li + 1}", tokens))
                    token_map = [(li, t.position) for t in tokens]
                    ms, more = events_to_mentions(annotated, token_map, doc.sentences)
                    mentions.extend(ms)
                    if diags is not None:
                        diags.writelines(d.to_json() + "\n" for d in found + more)

        out.writelines(map(serialize_conllu,
                           _read_documents(args.input, blocks(_lines(args.input)))))
    return 0


def cmd_clean(args) -> int:
    from .align import clean as clean_output
    source = _read_text(args.input)
    noisy = _read_text(args.model_output)
    annotated, diags = clean_output(source, noisy, Format(args.format),
                                    args.fuzzy_threshold)
    with _output(args.diagnostics) as diag_out, _output(args.output) as out:
        out.write(annotated.render() + "\n")
        if diag_out is not None:
            diag_out.writelines(d.to_json() + "\n" for d in diags)
    return 0


def cmd_annotate(args) -> int:
    from .pipeline import annotate_documents
    job = load_job_config(args.config, vars(args))
    cfg = pipeline_config(job)
    if job.jobs < 1:
        raise UsageError("jobs must be >= 1")
    if job.max_tokens < 1:
        raise UsageError("max_tokens must be >= 1")
    if not job.timeout > 0:  # NaN included
        raise UsageError("timeout must be > 0")
    if job.timeout > threading.TIMEOUT_MAX:  # a socket cannot wait that long
        raise UsageError(f"timeout must be <= {threading.TIMEOUT_MAX:.0f}")
    backend = build_backend(job)
    windows = skipped = 0
    from .workers import written  # a large input is read and written by a forked writer
    # the output is written before the diagnostics, as it leaves the inner block first
    with _output(args.diagnostics) as diags, _output(args.output) as out, written(
            args.input, _parsed, out,
            lambda pred: out.write(serialize_conllu(pred))) as (inputs, write):
        docs = (doc for path, given in zip(args.input, inputs)
                for doc in _read_documents(path, given))
        for pred, reports in annotate_documents(docs, backend, cfg, jobs=job.jobs):
            write(pred)
            windows += len(reports)
            skipped += sum(not r.annotated for r in reports)
            if diags is not None:
                diags.writelines(d.to_json() + "\n" for r in reports for d in r.diagnostics)
    if skipped:
        # output above is the partial result; the exit code flags the gaps
        print(f"error: {skipped} of {windows} windows left unannotated", file=sys.stderr)
        return 3
    return 0


def cmd_evaluate(args) -> int:
    from . import metrics
    # datasets are keyed by stem (metrics.conll_f1): a second file of one
    # stem on a side would take the first one's place unseen
    for flag, paths in (("--gold", args.gold), ("--pred", args.pred)):
        seen: dict[str, str] = {}
        for path in paths:
            stem = _dataset_id(path)
            if stem in seen:
                raise UsageError(f"{flag} files {_shown(seen[stem])} and {_shown(path)} "
                                 f"share the stem {stem!r}")
            seen[stem] = path
    if len(args.gold) + len(args.pred) > 2:
        # past one file a side, gold and prediction files pair by stem
        stems = {_dataset_id(p) for p in args.pred}
        unpaired = [_shown(g) for g in args.gold if _dataset_id(g) not in stems]
        if unpaired:
            raise UsageError("no --pred file shares the stem of --gold "
                             + ", ".join(unpaired))
    # the documents are read as they are scored (metrics.conll_f1), a large
    # prediction file in a worker started before the first gold document is read
    from .workers import forked_readers
    with forked_readers(args.pred, _parsed) as preds:
        gold = Corpus([(_dataset_id(p), _read_documents(p)) for p in args.gold])
        pred = Corpus([(_dataset_id(p), _read_documents(p, docs))
                       for p, docs in zip(args.pred, preds)])
        if len(args.gold) == 1 and len(args.pred) == 1:
            pred = Corpus([(gold.datasets[0][0], pred.datasets[0][1])])
        report = metrics.conll_f1(gold, pred)
    with _output(args.output) as out:
        out.write((report.to_table() if args.table else report.to_json()) + "\n")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    from . import metrics
    gold = Corpus([(_dataset_id(p), list(_read_documents(p))) for p in args.input])
    dens = metrics.density(gold, include_singletons=not args.no_singletons)
    cdf = metrics.antecedent_cdf(gold)
    payload = dens.as_dict()
    payload["antecedent"] = {
        "pairs": cdf.count,
        "coverage": {str(b): cdf.coverage(b) for b in args.budget},
    }
    with _output(args.cdf_csv) as cdf_out, _output(args.output) as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if cdf_out is not None:
            cdf_out.write(cdf.to_csv())
    return 0


def cmd_export_train(args) -> int:
    from .pipeline import export_training_pairs
    cfg = pipeline_config(load_job_config(args.config, vars(args)))

    def pairs(doc: Document) -> Iterator[str]:
        return (p.to_json() + "\n" for p in export_training_pairs(doc, cfg))

    with _output(args.output) as out:
        for path in args.input:
            with _each_document(path, pairs) as texts:
                for _, lines in texts:
                    out.writelines(lines)
    return 0


# -- argument wiring ---------------------------------------------------------------

def _add_format(p, default="headword"):
    p.add_argument("--format", choices=[f.value for f in Format], default=default,
                   help="inline annotation style (default: %(default)s)")


def _add_pipeline_flags(p):
    p.add_argument("--config", help="JSON file with JobConfig keys")
    p.add_argument("--preset", choices=PRESET_NAMES, default=None)
    p.add_argument("--sentences-per-batch", type=int, default=None,
                   dest="sentences_per_batch")
    p.add_argument("--context-budget", type=int, default=None, dest="context_budget")
    p.add_argument("--reindex", action=argparse.BooleanOptionalAction, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="corefkit",
                     description="coreference annotation with plain-text LLM I/O")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="CoNLL-U to inline annotated text")
    p.add_argument("input", nargs="+", help="CoNLL-U files ('-' for stdin)")
    p.add_argument("-o", "--output", default="-")
    _add_format(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("decode", help="inline annotated text to CoNLL-U")
    p.add_argument("input", help="annotated text file ('-' for stdin)")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--doc-id", default="decoded", dest="doc_id")
    p.add_argument("--diagnostics", help="write JSONL diagnostics here")
    _add_format(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("clean", help="repair noisy model output against its input")
    p.add_argument("input", help="the text that was sent to the model")
    p.add_argument("model_output", help="what the model returned")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--fuzzy-threshold", type=float, default=0.5,
                   dest="fuzzy_threshold")
    p.add_argument("--diagnostics", help="write JSONL diagnostics here")
    _add_format(p)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("annotate", help="windowed annotation over CoNLL-U input")
    p.add_argument("input", nargs="+", help="CoNLL-U files ('-' for stdin)")
    p.add_argument("-o", "--output", default="-")
    _add_format(p, default=None)
    _add_pipeline_flags(p)
    p.add_argument("--fuzzy-threshold", type=float, default=None,
                   dest="fuzzy_threshold")
    p.add_argument("--retries", type=int, default=None)
    p.add_argument("--backend", choices=["empty", "oracle", "replay", "http"],
                   default=None)
    p.add_argument("--url", default=None, help="completions endpoint (http backend)")
    p.add_argument("--model", default=None, help="model name (http backend)")
    p.add_argument("--max-tokens", type=int, default=None, dest="max_tokens")
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--token-env", default=None, dest="token_env",
                   help="environment variable holding the bearer token")
    p.add_argument("--replay", default=None, help="JSONL of captured completions")
    p.add_argument("--oracle", default=None, help="JSONL of exported training pairs")
    p.add_argument("--jobs", type=int, default=None,
                   help="documents annotated at once (http: one request in flight each)")
    p.add_argument("--diagnostics", help="write JSONL diagnostics here")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--gold", nargs="+", required=True)
    p.add_argument("--pred", nargs="+", required=True)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--table", action="store_true", help="plain table, not JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="density and antecedent-distance figures")
    p.add_argument("input", nargs="+", help="CoNLL-U files ('-' for stdin)")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--no-singletons", action="store_true",
                   help="exclude singleton chains from density")
    p.add_argument("--budget", type=int, nargs="*", default=[50, 250, 1024, 3072],
                   help="context sizes for antecedent coverage")
    p.add_argument("--cdf-csv", dest="cdf_csv",
                   help="write the full distance CDF as CSV here")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-train", help="gold prompt/completion JSONL")
    p.add_argument("input", nargs="+", help="CoNLL-U files ('-' for stdin)")
    p.add_argument("-o", "--output", default="-")
    _add_format(p, default=None)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_export_train)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConlluError, FormatError, json.JSONDecodeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # pipeline's BackendError; a run that has not loaded pipeline raised none
    except getattr(sys.modules.get(f"{__package__}.pipeline"), "BackendError", ()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
