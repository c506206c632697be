"""Command-line entry points.

    corefkit convert       CoNLL-U -> inline annotated text
    corefkit decode        inline annotated text -> CoNLL-U
    corefkit clean         project noisy model output onto its input text
    corefkit annotate      run the windowed pipeline over CoNLL-U documents
    corefkit evaluate      score predictions against gold CoNLL-U
    corefkit stats         mention density and antecedent-distance figures
    corefkit export-train  gold prompt/completion pairs as JSONL

Every command reads `-` as stdin and writes `-` (the default) as stdout.
Options may come from a JSON config file (--config); unknown keys there are
an error, and explicit command-line flags win over the file. Exit status: 0
success, 1 usage or configuration problem, 2 malformed data, 3 backend
failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import metrics
from .align import clean as clean_output
from .conllu import (ConlluError, Corpus, Document, Sentence, Token,
                     parse_conllu, serialize_conllu)
from .diag import Diagnostic, write_jsonl
from .formats import (Format, apply_idmap, build_events, decode,
                      events_to_mentions)
from .pipeline import (BackendError, PRESETS, PipelineConfig, annotate_corpus,
                       export_training_pairs, make_backend,
                       mentions_to_document, write_pairs)
from .reindex import localize


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
    clean: bool = True
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
    job = JobConfig()
    if path:
        try:
            raw = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise UsageError(f"config {path}: expected a JSON object")
        known = {f.name: f.type for f in dataclasses.fields(JobConfig)}
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
    for key, value in overrides.items():
        if value is not None:
            setattr(job, key, value)
    return job


def pipeline_config(job: JobConfig) -> PipelineConfig:
    if job.preset is not None:
        if job.preset not in PRESETS:
            raise UsageError(f"unknown preset {job.preset!r} "
                             f"(choose from {', '.join(sorted(PRESETS))})")
        base = PRESETS[job.preset]
        cfg = PipelineConfig(**dataclasses.asdict(base))
    else:
        cfg = PipelineConfig()
    cfg.fmt = job.format
    if job.sentences_per_batch is not None:
        cfg.sentences_per_batch = job.sentences_per_batch
    if job.context_budget is not None:
        cfg.context_budget = job.context_budget
    if job.fuzzy_threshold is not None:
        cfg.fuzzy_threshold = job.fuzzy_threshold
    cfg.on_the_fly_clean = job.clean
    cfg.reindex = job.reindex
    cfg.retries = job.retries
    try:
        cfg.__post_init__()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def build_backend(job: JobConfig):
    if job.backend == "replay":
        if not job.replay:
            raise UsageError("--replay PATH is required for the replay backend")
        return make_backend("replay", path=job.replay)
    if job.backend == "oracle":
        if not job.oracle:
            raise UsageError("--oracle PATH is required for the oracle backend")
        return make_backend("oracle", path=job.oracle)
    if job.backend == "http":
        if not job.url or not job.model:
            raise UsageError("--url and --model are required for the http backend")
        return make_backend("http", url=job.url, model=job.model,
                            max_tokens=job.max_tokens, timeout=job.timeout,
                            token_env=job.token_env)
    if job.backend == "empty":
        return make_backend("empty")
    raise UsageError(f"unknown backend {job.backend!r}")


# -- small I/O helpers -----------------------------------------------------------

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConlluError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _dataset_id(path: str) -> str:
    return "stdin" if path == "-" else Path(path).stem


def _parse_file(path: str) -> list[Document]:
    try:
        return parse_conllu(_read_text(path))
    except ConlluError as exc:
        name = "<stdin>" if path == "-" else path
        raise ConlluError(f"{name}: {exc}") from exc


def _read_corpus(paths: list[str]) -> Corpus:
    return Corpus([(_dataset_id(p), _parse_file(p)) for p in paths])


def _write_diags(path: str | None, diags: list[Diagnostic]) -> None:
    if path:
        write_jsonl(path, diags)


# -- commands --------------------------------------------------------------------

def cmd_convert(args) -> int:
    fmt = Format(args.format)
    docs = [d for p in args.input for d in _parse_file(p)]
    blocks = []
    for doc in docs:
        annotated = build_events(doc.sentences, doc.mentions(), fmt)
        _, idmap = localize(annotated)
        # convert output numbers chains from 1; prompts number them from 0
        display = {cid: i + 1 for cid, i in idmap.global_to_local.items()}
        text = apply_idmap(annotated, display).render()
        blocks.append(f"# doc = {doc.doc_id}\n{text}" if len(docs) > 1 else text)
    _write_text(args.output, "\n".join(blocks) + "\n")
    return 0


def cmd_decode(args) -> int:
    fmt = Format(args.format)
    text = _read_text(args.input)
    diags: list[Diagnostic] = []
    finished: list[Document] = []
    doc, mentions = Document(args.doc_id), []

    def flush():
        if doc.sentences:
            renamed = [dataclasses.replace(m, chain_id=f"e{m.chain_id}")
                       for m in mentions]
            finished.append(mentions_to_document(doc, renamed))

    for line in text.splitlines():
        if line.startswith("# doc = "):
            flush()
            doc, mentions = Document(line[len("# doc = "):].strip()), []
            continue
        if not line.strip():
            continue
        annotated, d = decode(line, fmt)
        diags.extend(d)
        li = len(doc.sentences)
        tokens = [Token(p + 1, form) for p, form in enumerate(annotated.tokens)]
        sent = Sentence(f"s{li + 1}", tokens)
        doc.sentences.append(sent)
        token_map = [(li, t.position) for t in tokens]
        ms, d2 = events_to_mentions(annotated, token_map, doc.sentences)
        diags.extend(d2)
        for m in ms:
            if m.is_zero and not any(
                    t.position == m.head[0] and t.sub_index == m.head[1]
                    for t in sent.empty_nodes):
                sent.empty_nodes.append(Token(m.head[0], "_", 0, True, m.head[1]))
        sent.empty_nodes.sort(key=lambda t: (t.position, t.sub_index))
        mentions.extend(ms)
    flush()
    _write_text(args.output, "".join(serialize_conllu(d) for d in finished))
    _write_diags(args.diagnostics, diags)
    return 0


def cmd_clean(args) -> int:
    source = _read_text(args.input)
    noisy = _read_text(args.model_output)
    annotated, diags = clean_output(source, noisy, Format(args.format),
                                    args.fuzzy_threshold)
    _write_text(args.output, annotated.render() + "\n")
    _write_diags(args.diagnostics, diags)
    return 0


def cmd_annotate(args) -> int:
    job = load_job_config(args.config, {
        "format": args.format, "preset": args.preset,
        "sentences_per_batch": args.sentences_per_batch,
        "context_budget": args.context_budget,
        "fuzzy_threshold": args.fuzzy_threshold,
        "clean": args.clean, "reindex": args.reindex, "retries": args.retries,
        "backend": args.backend, "url": args.url, "model": args.model,
        "max_tokens": args.max_tokens, "timeout": args.timeout,
        "token_env": args.token_env, "replay": args.replay,
        "oracle": args.oracle, "jobs": args.jobs,
    })
    cfg = pipeline_config(job)
    backend = build_backend(job)
    corpus = _read_corpus(args.input)
    predicted, reports = annotate_corpus(corpus, backend, cfg, jobs=job.jobs)
    out = "".join(serialize_conllu(d) for _, docs in predicted.datasets for d in docs)
    _write_text(args.output, out)
    diags = [d for r in reports for d in r.diagnostics]
    _write_diags(args.diagnostics, diags)
    skipped = sum(1 for r in reports if not r.annotated)
    if skipped:
        # output above is the partial result; the exit code flags the gaps
        print(f"error: {skipped} of {len(reports)} windows left unannotated",
              file=sys.stderr)
        return 3
    return 0


def cmd_evaluate(args) -> int:
    gold = _read_corpus(args.gold)
    pred = _read_corpus(args.pred)
    if len(args.gold) == 1 and len(args.pred) == 1:
        pred = Corpus([(gold.datasets[0][0], pred.datasets[0][1])])
    report = metrics.conll_f1(gold, pred)
    _write_text(args.output,
                (report.to_table() if args.table else report.to_json()) + "\n")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    gold = _read_corpus(args.input)
    dens = metrics.density(gold, include_singletons=not args.no_singletons)
    cdf = metrics.antecedent_cdf(gold)
    payload = dens.as_dict()
    payload["antecedent"] = {
        "pairs": cdf.count,
        "coverage": {str(b): cdf.coverage(b) for b in args.budget},
    }
    _write_text(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.cdf_csv:
        _write_text(args.cdf_csv, cdf.to_csv())
    return 0


def cmd_export_train(args) -> int:
    job = load_job_config(args.config, {
        "format": args.format, "preset": args.preset,
        "sentences_per_batch": args.sentences_per_batch,
        "context_budget": args.context_budget, "reindex": args.reindex,
    })
    cfg = pipeline_config(job)
    pairs = export_training_pairs(_read_corpus(args.input), cfg)
    if args.output == "-":
        for pair in pairs:
            sys.stdout.write(pair.to_json() + "\n")
    else:
        write_pairs(args.output, pairs)
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
    p.add_argument("--clean", action=argparse.BooleanOptionalAction, default=None)
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
                   help="documents annotated in parallel")
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
    except (ConlluError, json.JSONDecodeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
