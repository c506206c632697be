"""Command-line entry points.

    corefkit convert       CoNLL-U -> inline annotated text
    corefkit decode        inline annotated text -> CoNLL-U
    corefkit clean         project noisy model output onto its input text
    corefkit annotate      run the windowed pipeline over CoNLL-U documents
    corefkit evaluate      score predictions against gold CoNLL-U
    corefkit stats         mention density and antecedent-distance figures
    corefkit export-train  gold prompt/completion pairs as JSONL

Every command reads `-` as stdin; `-o` (default `-`) and `--diagnostics`
both write `-` as stdout. Options may come from a JSON config file
(--config); unknown keys there are an error, and explicit command-line flags
win over the file. Exit status: 0 success, 1 usage or configuration problem
(an output path that cannot be written included), 2 malformed data (an input
that cannot be read or is not UTF-8 included), 3 backend failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import shutil
import sys
import tempfile
import threading
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from . import metrics
from .align import clean as clean_output
from .conllu import (ConlluError, Corpus, Document, Sentence, Token, iter_conllu,
                     serialize_conllu)
from .formats import (Format, FormatError, build_events, decode, events_to_mentions,
                      render)
from .pipeline import (BackendError, EmptyBackend, HttpBackend, ModelBackend,
                       OracleBackend, PRESETS, PipelineConfig,
                       annotate_documents, export_training_pairs, mentions_to_document)
from .reindex import IdMap


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
    """The text at ``path`` (stdin for ``-``); an unreadable path or one
    that is not UTF-8 raises ``error``."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {_shown(path)}: {exc}") from exc


@contextmanager
def _output(path: str | None) -> Iterator[TextIO | None]:
    """The one output writer: a temporary file for a command to write its
    output into as it goes, copied to ``path`` (stdout for ``-``) only if
    the block ends without an error. So output takes no memory, and a data
    error found late leaves none. An unwritable path is a usage error. No
    ``path``, no file: the block gets None."""
    if not path:
        yield None
        return
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        yield spool
        spool.seek(0)
        if path == "-":
            shutil.copyfileobj(spool, sys.stdout)
            return
        try:
            with open(path, "w", encoding="utf-8") as fh:
                shutil.copyfileobj(spool, fh)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}") from exc


def _dataset_id(path: str) -> str:
    return "stdin" if path == "-" else Path(path).stem


def _shown(path: str) -> str:
    """``path`` as messages name it."""
    return "<stdin>" if path == "-" else path


class _Unreadable(ConlluError):
    """An input that cannot be read as UTF-8 text; the message names it."""


def _lines(path: str) -> Iterator[str]:
    """The lines of the text at ``path`` (stdin for ``-``) as
    ``str.splitlines`` gives them, read a block at a time: each block is
    completed to a line end, so no line is split across two."""
    try:
        with nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8") as fh:
            while block := fh.read(1 << 16):
                yield from (block + fh.readline()).splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Unreadable(f"cannot read {_shown(path)}: {exc}") from exc


def _read_documents(path: str, docs: Iterator[Document] | None = None) -> Iterator[Document]:
    """The documents of one file (``docs``, else ``iter_conllu`` over its
    lines), read one at a time: a repeated id is refused, and each parse
    warning goes to stderr, as its document is read."""
    name = _shown(path)
    ids: set[str] = set()
    try:
        for doc in iter_conllu(_lines(path)) if docs is None else docs:
            if doc.doc_id in ids:
                raise ConlluError(f"document id {doc.doc_id!r} appears more than once")
            ids.add(doc.doc_id)
            for w in doc.warnings:
                print(f"warning: {name}: {w}", file=sys.stderr)
            yield doc
    except _Unreadable:
        raise
    except ConlluError as exc:
        raise ConlluError(f"{name}: {exc}") from exc


@contextmanager
def _in_document(path: str, doc: Document) -> Iterator[None]:
    """Names the file and the document in a ``FormatError`` raised inside."""
    try:
        yield
    except FormatError as exc:
        raise FormatError(f"{_shown(path)}: document {doc.doc_id!r}: {exc}") from exc


# -- commands --------------------------------------------------------------------

def cmd_convert(args) -> int:
    fmt = Format(args.format)

    def rendered() -> Iterator[tuple[str, str]]:
        for path in args.input:
            for doc in _read_documents(path):
                with _in_document(path, doc):
                    annotated = build_events(doc.sentences, doc.mentions(), fmt)
                idmap = IdMap()
                # convert output numbers chains from 1; prompts number them from 0
                yield doc.doc_id, render(annotated, index=lambda c: idmap.assign(c) + 1)

    blocks = rendered()
    # a second document means headers; it is looked for only once the first
    # is rendered, so the first fault in file order is the one reported
    ahead = list(itertools.islice(blocks, 2))
    with _output(args.output) as out:
        for n, (doc_id, text) in enumerate(itertools.chain(ahead, blocks)):
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
    docs = (doc for path in args.input for doc in _read_documents(path))
    windows = skipped = 0
    # the output is written before the diagnostics, as it leaves the inner block first
    with _output(args.diagnostics) as diags, _output(args.output) as out:
        for pred, reports in annotate_documents(docs, backend, cfg, jobs=job.jobs):
            out.write(serialize_conllu(pred))
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
    with forked_readers(args.pred, lambda p: iter_conllu(_lines(p))) as preds:
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
    cfg = pipeline_config(load_job_config(args.config, vars(args)))
    with _output(args.output) as out:
        for path in args.input:
            for doc in _read_documents(path):
                with _in_document(path, doc):
                    out.writelines(p.to_json() + "\n" for p in export_training_pairs(doc, cfg))
    return 0


# -- argument wiring ---------------------------------------------------------------

def _add_format(p, default="headword"):
    p.add_argument("--format", choices=[f.value for f in Format], default=default,
                   help="inline annotation style (default: %(default)s)")


def _add_pipeline_flags(p):
    p.add_argument("--config", help="JSON file with JobConfig keys")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
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
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
