"""End-to-end command behavior, exit codes, config handling."""
import io
import itertools
import json
import os
import pickle
import random
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest

import corefkit
from corefkit import cli, metrics, pipeline, workers
from corefkit.cli import JobConfig, UsageError, build_backend, main
from corefkit.conllu import (Corpus, Document, parse_conllu, serialize_conllu,
                             serialize_corpus)
from corefkit.synth import SynthConfig, random_corpus, random_document
from corefkit.pipeline import EmptyBackend, HttpBackend, OracleBackend

from conftest import GOLDEN, SISTER_CONLLU, make_sister_doc, read_pairs


@pytest.fixture
def gold_path(tmp_path):
    p = tmp_path / "gold.conllu"
    p.write_text(SISTER_CONLLU, encoding="utf-8")
    return str(p)


def run(*argv):
    return main(list(argv))


def test_convert_single_document(gold_path, tmp_path, capsys):
    assert run("convert", gold_path, "--format", "headword") == 0
    assert capsys.readouterr().out == GOLDEN["headword"] + "\n"


def test_convert_many_documents_get_headers(gold_path, tmp_path, capsys):
    others = [tmp_path / f"other{i}.conllu" for i in (2, 3)]
    for i, other in enumerate(others, start=2):
        other.write_text(SISTER_CONLLU.replace("demo", f"demo{i}"), encoding="utf-8")
    assert run("convert", gold_path, *map(str, others), "--format", "minimal") == 0
    out = capsys.readouterr().out
    assert out.startswith("# doc = demo\n")
    # the third file is read after the first two are written
    assert out.count(GOLDEN["minimal"]) == 3
    assert "# doc = demo2\n" in out and "# doc = demo3\n" in out


def test_convert_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SISTER_CONLLU))
    assert run("convert", "-", "--format", "crac") == 0
    assert capsys.readouterr().out == GOLDEN["crac"] + "\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_convert_and_decode_headers_follow_the_document_count(tmp_path, monkeypatch,
                                                              capsys, n, source):
    # past one document, each block gets a "# doc =" header and decode splits on it
    ids = [f"demo{i}" for i in range(n)]
    gold = "".join(SISTER_CONLLU.replace("demo", doc_id) for doc_id in ids)
    expected = ("\n".join(f"# doc = {doc_id}\n{GOLDEN['minimal']}" for doc_id in ids)
                if n > 1 else GOLDEN["minimal"] * n) + "\n"

    def command(name, text):
        path = tmp_path / f"{name}.in"
        path.write_text(text, encoding="utf-8")
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(name, "-" if source == "stdin" else str(path), "--format", "minimal") == 0
        return capsys.readouterr().out

    assert command("convert", gold) == expected
    decoded = parse_conllu(command("decode", expected))
    assert [d.doc_id for d in decoded] == (ids if n > 1 else ["decoded"] * n)
    assert all(sorted(d.chains) == ["e1", "e2"] for d in decoded)


@pytest.mark.parametrize("command", ["convert", "decode"])
def test_convert_and_decode_write_each_document_before_reading_far_ahead(
        tmp_path, monkeypatch, capsys, command):
    rng = random.Random(3)
    docs = [random_document(f"d{i}", SynthConfig(sentences=(2, 2)), rng) for i in range(5)]
    source = tmp_path / "in.conllu"
    source.write_text(serialize_corpus(docs), encoding="utf-8")
    if command == "decode":
        text = tmp_path / "in.txt"
        assert run("convert", str(source), "--format", "minimal", "-o", str(text)) == 0
        source = text
    assert run(command, str(source), "--format", "minimal") == 0
    expected = capsys.readouterr().out
    log = []

    def read(lines):  # each document as the convert reader parses it
        for doc in parse_lines(lines):
            log.append(("read", doc.doc_id))
            yield doc

    def lines(path):  # each "# doc =" block as the decode reader reaches it
        for line in read_lines(path):
            if line.startswith("# doc = "):
                log.append(("read", line[len("# doc = "):]))
            yield line

    @contextmanager
    def output(path):
        with write_output(path) as spool:
            yield spool and Recording(spool)

    class Recording:
        def __init__(self, spool):
            self.spool = spool

        def write(self, text):
            log.extend(("write", d.doc_id) for d in docs if f"= {d.doc_id}\n" in text)
            self.spool.write(text)

        def writelines(self, texts):
            for text in texts:
                self.write(text)

    parse_lines, read_lines, write_output = cli.iter_conllu, cli._lines, cli._output
    monkeypatch.setattr(cli, "iter_conllu", read)
    monkeypatch.setattr(cli, "_lines", lines)
    monkeypatch.setattr(cli, "_output", output)
    assert run(command, str(source), "--format", "minimal") == 0
    assert capsys.readouterr().out == expected
    assert [e for e in log if e[0] == "write"] == [("write", d.doc_id) for d in docs]
    # document 1 is written before document 3 is read, and so on down the file
    for i in range(len(docs) - 2):
        assert log.index(("write", docs[i].doc_id)) < log.index(("read", docs[i + 2].doc_id))


def test_decode_rebuilds_conllu(tmp_path, capsys):
    src = tmp_path / "annotated.txt"
    src.write_text(GOLDEN["minimal"] + "\n", encoding="utf-8")
    out = tmp_path / "out.conllu"
    assert run("decode", str(src), "--format", "minimal", "-o", str(out)) == 0
    [doc] = parse_conllu(out.read_text(encoding="utf-8"))
    assert sorted(doc.chains) == ["e1", "e2"]
    assert len(doc.chains["e1"].mentions) == 3
    assert [t.form for t in doc.sentences[0].tokens] == [
        "When", "Lison", "visits", "her", "sister", ",", "brings", "flowers."]


def test_decode_splits_on_doc_headers(tmp_path):
    src = tmp_path / "annotated.txt"
    src.write_text(f"# doc = a\n{GOLDEN['minimal']}\n"
                   f"# doc = b\n{GOLDEN['minimal']}\n", encoding="utf-8")
    out = tmp_path / "out.conllu"
    assert run("decode", str(src), "--format", "minimal", "-o", str(out)) == 0
    docs = parse_conllu(out.read_text(encoding="utf-8"))
    assert [d.doc_id for d in docs] == ["a", "b"]


def test_decode_repeated_doc_id_exits_2(tmp_path, capsys):
    src = tmp_path / "annotated.txt"
    src.write_text(f"# doc = a\n{GOLDEN['minimal']}\n"
                   f"# doc = a\n{GOLDEN['minimal']}\n", encoding="utf-8")
    out = tmp_path / "out.conllu"
    assert run("decode", str(src), "--format", "minimal", "-o", str(out)) == 2
    assert capsys.readouterr().err == f"error: {src}: document id 'a' appears more than once\n"
    assert not out.exists()


def test_clean_writes_diagnostics(tmp_path, capsys):
    src = tmp_path / "input.txt"
    src.write_text("When Lison visits\n", encoding="utf-8")
    noisy = tmp_path / "model.txt"
    noisy.write_text("When Lisonn <ent1> visits hallucinated\n", encoding="utf-8")
    diag = tmp_path / "diag.jsonl"
    assert run("clean", str(src), str(noisy), "--format", "headword",
               "--diagnostics", str(diag)) == 0
    assert capsys.readouterr().out == "When Lison <ent1> visits\n"
    records = [json.loads(l) for l in diag.read_text().splitlines()]
    assert all({"stage", "message", "position"} <= set(r) for r in records)


def test_annotate_empty_backend_emits_unannotated_copy(gold_path, capsys):
    assert run("annotate", gold_path, "--backend", "empty") == 0
    [doc] = parse_conllu(capsys.readouterr().out)
    assert doc.chains == {} and len(doc.sentences) == 1


def test_export_train_then_oracle_closure(gold_path, tmp_path, capsys):
    pairs_path = tmp_path / "pairs.jsonl"
    assert run("export-train", gold_path, "--format", "headword",
               "-o", str(pairs_path)) == 0
    [pair] = read_pairs(pairs_path)
    assert pair.completion == ("When Lison <ent0> visits her <ent0> sister"
                               " <ent1> , brings <zero0> flowers.")

    pred_path = tmp_path / "pred.conllu"
    assert run("annotate", gold_path, "--backend", "oracle",
               "--oracle", str(pairs_path), "--format", "headword",
               "-o", str(pred_path)) == 0
    capsys.readouterr()
    assert run("evaluate", "--gold", gold_path, "--pred", str(pred_path),
               "--table") == 0
    table = capsys.readouterr().out
    assert "100.00" in table and "macro" in table


def test_annotate_mismatched_windows_exits_3(gold_path, tmp_path, capsys):
    pairs_path = tmp_path / "pairs.jsonl"
    run("export-train", gold_path, "-o", str(pairs_path))
    out_path = tmp_path / "pred.conllu"
    code = run("annotate", gold_path, "--backend", "oracle",
               "--oracle", str(pairs_path), "--format", "minimal",
               "-o", str(out_path))
    assert code == 3
    assert "unannotated" in capsys.readouterr().err
    assert out_path.exists()  # the partial result is still written


def test_diagnostics_dash_goes_to_stdout(gold_path, tmp_path, monkeypatch,
                                        capsys):
    monkeypatch.chdir(tmp_path)
    run("export-train", gold_path, "-o", "pairs.jsonl")
    code = run("annotate", gold_path, "--backend", "oracle",
               "--oracle", "pairs.jsonl", "--format", "minimal",
               "-o", "pred.conllu", "--diagnostics", "-")
    assert code == 3
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert {"stage", "message", "position"} == set(records[0])
    assert records[-1]["message"] == "window left unannotated"
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("command, flags", [
    ("export-train", ["-o"]),
    ("annotate", ["--backend", "empty", "-o", os.devnull, "--diagnostics"]),
    ("convert", ["-o"]),
    ("stats", ["-o", os.devnull, "--cdf-csv"]),
])
def test_unwritable_output_exits_1(gold_path, tmp_path, capsys, command, flags):
    # an empty path is a path that cannot be written, not "no file"
    for target in (str(tmp_path / "missing" / "out.jsonl"), ""):
        assert run(command, gold_path, *flags, target) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1


def test_evaluate_json_output(gold_path, capsys):
    assert run("evaluate", "--gold", gold_path, "--pred", gold_path) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["macro_average"] == pytest.approx(100.0)


def test_evaluate_pairs_files_by_stem(tmp_path, capsys):
    gold = [tmp_path / "en_gum.conllu", tmp_path / "cs_pcedt.conllu"]
    (tmp_path / "pred").mkdir()
    for p in gold:
        p.write_text(SISTER_CONLLU, encoding="utf-8")
        (tmp_path / "pred" / p.name).write_text(SISTER_CONLLU, encoding="utf-8")
    # predictions of the same stems, listed in the other order
    paired = [str(tmp_path / "pred" / p.name) for p in reversed(gold)]
    assert run("evaluate", "--gold", *map(str, gold), "--pred", *paired, "--table") == 0
    table = capsys.readouterr().out
    assert [r.split()[0] for r in table.splitlines()] == [
        "dataset", "en_gum", "cs_pcedt", "macro"]
    assert table.count("100.00") == 9

    both = tmp_path / "pred.conllu"  # two gold documents in one prediction file
    both.write_text(SISTER_CONLLU + SISTER_CONLLU.replace("demo", "demo2"), encoding="utf-8")
    assert run("evaluate", "--gold", *map(str, gold), "--pred", str(both)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: no --pred file shares the stem of --gold {gold[0]}, {gold[1]}\n")
    assert run("evaluate", "--gold", *map(str, gold), "--pred", paired[0]) == 1
    assert capsys.readouterr().err.endswith(f"--gold {gold[0]}\n")
    assert run("evaluate", "--gold", str(gold[0]), "--pred", str(both), paired[0]) == 1
    assert capsys.readouterr().err.endswith(f"--gold {gold[0]}\n")
    assert run("evaluate", "--gold", str(gold[1]), "--pred", str(both), paired[0]) == 0
    assert json.loads(capsys.readouterr().out)["macro_average"] == pytest.approx(100.0)

    # one gold file and one prediction pair whatever their names
    assert run("evaluate", "--gold", str(gold[0]), "--pred", str(both), "--table") == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["en_gum"] + ["100.00"] * 4


def test_evaluate_refuses_two_files_of_one_stem_on_a_side(tmp_path, capsys):
    """Files pair by stem, so a second file of a stem on one side would be
    scored in place of the first, or not at all."""
    paths = {}
    for d in ("a", "b", "pa", "pb"):
        (tmp_path / d).mkdir()
        paths[d] = tmp_path / d / "x.conllu"
        paths[d].write_text(SISTER_CONLLU, encoding="utf-8")
    other = tmp_path / "y.conllu"
    other.write_text(SISTER_CONLLU, encoding="utf-8")
    a, b, pa, pb = (str(paths[d]) for d in ("a", "b", "pa", "pb"))

    assert run("evaluate", "--gold", a, b, "--pred", pa, pb) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: --gold files {a} and {b} share the stem 'x'\n")
    assert run("evaluate", "--gold", a, str(other), "--pred", pa, pb, "--table") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: --pred files {pa} and {pb} share the stem 'x'\n")
    # the same file twice is two files of one stem too
    assert run("evaluate", "--gold", a, a, "--pred", pa) == 1
    assert capsys.readouterr().err == f"error: --gold files {a} and {a} share the stem 'x'\n"
    # one file a side still pairs whatever the names
    assert run("evaluate", "--gold", a, "--pred", pb) == 0


def test_stats_reports_density_and_coverage(gold_path, tmp_path, capsys):
    csv_path = tmp_path / "cdf.csv"
    assert run("stats", gold_path, "--budget", "2", "250",
               "--cdf-csv", str(csv_path)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["datasets"]["gold"]["gold_per_100"] == pytest.approx(50.0)
    assert payload["antecedent"]["coverage"]["2"] == pytest.approx(0.5)
    assert payload["antecedent"]["coverage"]["250"] == pytest.approx(1.0)
    assert csv_path.read_text().startswith("distance_words")


def test_config_file_with_flag_overrides(gold_path, tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"backend": "empty", "format": "minimal",
                               "sentences_per_batch": 2}), encoding="utf-8")
    assert run("annotate", gold_path, "--config", str(cfg),
               "--format", "headword") == 0
    assert parse_conllu(capsys.readouterr().out)


def test_unknown_config_key_is_a_usage_error(gold_path, tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"backend": "empty", "max_token": 5}),
                   encoding="utf-8")
    assert run("annotate", gold_path, "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert "unknown keys" in err and "max_token" in err


@pytest.mark.parametrize("command", ["annotate", "export-train"])
def test_removed_clean_key_is_unknown(gold_path, tmp_path, capsys, command):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"clean": False}), encoding="utf-8")
    assert run(command, gold_path, "--config", str(cfg)) == 1
    assert "unknown keys clean " in capsys.readouterr().err
    assert run(command, gold_path, "--no-clean") == 1
    assert "unrecognized arguments: --no-clean" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["annotate", "export-train"])
@pytest.mark.parametrize("flags, config", [
    (["--sentences-per-batch", "0"], None),
    (["--context-budget", "-1"], None),
    ([], {"format": "bogus"}),
    ([], {"jobs": "4"}),
    ([], {"retries": -1}),
], ids=["zero-batch", "negative-budget", "unknown-format", "string-jobs",
        "negative-retries"])
def test_bad_pipeline_values_are_usage_errors(gold_path, tmp_path, capsys,
                                              command, flags, config):
    if config is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        flags = [*flags, "--config", str(path)]
    assert run(command, gold_path, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_annotate_needs_at_least_one_job(gold_path, capsys, jobs):
    assert run("annotate", gold_path, "--backend", "empty", "--jobs", jobs) == 1
    assert capsys.readouterr().err == "error: jobs must be >= 1\n"


@pytest.mark.parametrize("flags, config, message", [
    (["--timeout", "0"], None, "timeout must be > 0"),
    (["--timeout", "-1"], None, "timeout must be > 0"),
    (["--timeout", "nan"], None, "timeout must be > 0"),
    ([], {"timeout": 0}, "timeout must be > 0"),
    (["--timeout", "inf"], None, f"timeout must be <= {threading.TIMEOUT_MAX:.0f}"),
    (["--timeout", "1e300"], None, f"timeout must be <= {threading.TIMEOUT_MAX:.0f}"),
    ([], {"timeout": float("inf")}, f"timeout must be <= {threading.TIMEOUT_MAX:.0f}"),
    (["--max-tokens", "0"], None, "max_tokens must be >= 1"),
    ([], {"max_tokens": -5}, "max_tokens must be >= 1"),
    (["--url", "localhost:8000/v1/completions"], None,
     "url 'localhost:8000/v1/completions' is not an http:// or https:// URL"),
    ([], {"url": "file:///etc/hostname"},
     "url 'file:///etc/hostname' is not an http:// or https:// URL"),
], ids=["zero-timeout", "negative-timeout", "nan-timeout", "config-zero-timeout",
        "infinite-timeout", "huge-timeout", "config-infinite-timeout", "zero-max-tokens",
        "config-negative-max-tokens", "schemeless-url",
        "config-file-url"])
def test_bad_http_values_are_usage_errors(gold_path, tmp_path, capsys, flags, config,
                                          message):
    # the refused port is never reached: each run stops before a request
    if config is None:  # a later --url wins
        flags = ["--url", "http://127.0.0.1:9/v1/completions", *flags]
    else:
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"url": "http://127.0.0.1:9/v1/completions",
                                    **config}), encoding="utf-8")
        flags = [*flags, "--config", str(path)]
    assert run("annotate", gold_path, "--backend", "http", "--model", "m", *flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unreadable_config_exits_1(gold_path, tmp_path, capsys):
    missing = str(tmp_path / "nothere.json")
    assert run("export-train", gold_path, "--config", missing) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert missing in err


@pytest.mark.parametrize("backend", ["replay", "oracle"])
def test_missing_backend_file_names_its_option(gold_path, tmp_path, capsys, backend):
    missing = str(tmp_path / "nope.jsonl")
    assert run("annotate", gold_path, "--backend", backend, f"--{backend}", missing) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{backend} {missing}: ") and err.count("\n") == 1


@pytest.mark.parametrize("completion", [5, None], ids=["number", "null"])
@pytest.mark.parametrize("backend", ["replay", "oracle"])
def test_malformed_backend_record_exits_2(gold_path, tmp_path, capsys, backend, completion):
    path = tmp_path / "records.jsonl"
    record = {"doc_id": "demo", "window_index": 0, "prompt": "p", "completion": "ok"}
    path.write_text(json.dumps(record) + "\n\n"
                    + json.dumps({**record, "completion": completion}) + "\n", encoding="utf-8")
    assert run("annotate", gold_path, "--backend", backend, f"--{backend}", str(path)) == 2
    assert capsys.readouterr().err == (
        f"error: --{backend} {path}: record on line 3: completion must be str, "
        f"not {json.dumps(completion)}\n")


@pytest.mark.parametrize("backend", ["replay", "oracle"])
def test_repeated_window_record_exits_2(gold_path, tmp_path, capsys, backend):
    path = tmp_path / "records.jsonl"
    record = {"doc_id": "demo", "window_index": 0, "prompt": "p", "completion": "ok"}
    path.write_text(json.dumps(record) + "\n\n" + json.dumps(record) + "\n", encoding="utf-8")
    assert run("annotate", gold_path, "--backend", backend, f"--{backend}", str(path)) == 2
    assert capsys.readouterr().err == (
        f"error: --{backend} {path}: record on line 3: window ('demo', 0) is already "
        "recorded on line 1\n")


def test_replay_ignores_prompts_that_oracle_checks(gold_path, tmp_path, capsys):
    pairs_path = tmp_path / "pairs.jsonl"
    assert run("export-train", gold_path, "-o", str(pairs_path)) == 0
    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text("".join(json.dumps({**json.loads(line), "prompt": "wrong"}) + "\n"
                             for line in pairs_path.read_text(encoding="utf-8").splitlines()),
                     encoding="utf-8")
    pred = tmp_path / "pred.conllu"
    assert run("annotate", gold_path, "--backend", "replay", "--replay", str(wrong),
               "-o", str(pred)) == 0
    assert run("evaluate", "--gold", gold_path, "--pred", str(pred), "--table") == 0
    assert "100.00" in capsys.readouterr().out
    assert run("annotate", gold_path, "--backend", "oracle", "--oracle", str(wrong),
               "-o", str(pred), "--diagnostics", str(tmp_path / "diag.jsonl")) == 3
    assert capsys.readouterr().err == "error: 1 of 1 windows left unannotated\n"
    assert "does not match the exported one" in (tmp_path / "diag.jsonl").read_text()


def test_replay_writes_the_empty_node_of_a_new_zero(gold_path, tmp_path):
    # the completion adds a zero after "visits", where the input has no empty node
    replay = tmp_path / "replay.jsonl"
    replay.write_text(json.dumps({"doc_id": "demo", "window_index": 0, "completion": (
        "When Lison <ent0> visits <zero0> her <ent0> sister <ent1> , brings <zero0> flowers.")})
        + "\n", encoding="utf-8")
    pred = tmp_path / "pred.conllu"
    assert run("annotate", gold_path, "--backend", "replay", "--replay", str(replay),
               "-o", str(pred)) == 0
    written = pred.read_text(encoding="utf-8")
    assert "\n3.1\t_\t_\t_\t_\t_\t_\t_\t_\tEntity=(e1)\n4\ther\t" in written
    assert "\n7.1\t_\t_\t_\t_\t_\t_\t_\t7:nsubj\tEntity=(e1)\n" in written
    [doc] = parse_conllu(written)
    assert sorted(m.head for m in doc.chains["e1"].mentions if m.is_zero) == [(3, 1), (7, 1)]
    # apart from the new node and the Entity values, the input comes back as it was
    kept = [line.rpartition("\t")[0] for line in written.splitlines()
            if not line.startswith("3.1\t")]
    assert kept == [line.rpartition("\t")[0] for line in SISTER_CONLLU.splitlines()]


# a zero subject (0.1) ahead of the first word of the document, coreferent
# with a mention two sentences later
LEADING_ZERO_CONLLU = """\
# newdoc id = lead
# sent_id = s1
0.1\t_\t_\t_\t_\t_\t_\t_\t1:nsubj\tEntity=(e1)
1\tCame\t_\t_\t_\t_\t0\t_\t_\t_
2\thome\t_\t_\t_\t_\t1\t_\t_\t_
3\tlate\t_\t_\t_\t_\t1\t_\t_\t_

# sent_id = s2
1\tThe\t_\t_\t_\t_\t2\t_\t_\tEntity=(e2-2
2\tdog\t_\t_\t_\t_\t3\t_\t_\tEntity=e2)
3\tbarked\t_\t_\t_\t_\t0\t_\t_\t_

# sent_id = s3
1\tAnna\t_\t_\t_\t_\t2\t_\t_\tEntity=(e1-1)
2\tfed\t_\t_\t_\t_\t0\t_\t_\t_
3\tit\t_\t_\t_\t_\t2\t_\t_\tEntity=(e2-1)

"""


@pytest.mark.parametrize("per_batch", ["1", "2"])
@pytest.mark.parametrize("fmt", ["crac", "explicit", "minimal", "headword"])
def test_oracle_keeps_a_zero_ahead_of_the_first_word(tmp_path, capsys, fmt, per_batch):
    gold = tmp_path / "gold.conllu"
    gold.write_text(LEADING_ZERO_CONLLU, encoding="utf-8")
    pairs, pred = tmp_path / "pairs.jsonl", tmp_path / "pred.conllu"
    flags = ("--format", fmt, "--sentences-per-batch", per_batch)
    assert run("export-train", str(gold), "-o", str(pairs), *flags) == 0
    assert run("annotate", str(gold), "--backend", "oracle", "--oracle", str(pairs),
               "-o", str(pred), *flags) == 0
    assert run("evaluate", "--gold", str(gold), "--pred", str(pred), "--table") == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["macro", "100.00"]
    assert "\n0.1\t_\t_\t_\t_\t_\t_\t_\t1:nsubj\tEntity=(e1)\n" in pred.read_text(
        encoding="utf-8")


@pytest.mark.parametrize("second", ["same", "renamed"])
@pytest.mark.parametrize("command", [
    ("evaluate", "--gold", "{path}", "--pred", "{path}"),
    ("annotate", "{path}", "--backend", "empty"),
    ("export-train", "{path}"),
    ("convert", "{path}"),
    ("stats", "{path}"),
], ids=lambda c: c[0])
def test_repeated_doc_id_exits_2(tmp_path, capsys, command, second):
    # a second document under the same id, written again or with other text
    other = SISTER_CONLLU if second == "same" else SISTER_CONLLU.replace("Lison", "Marie")
    path = tmp_path / "dup.conllu"
    path.write_text(SISTER_CONLLU + other, encoding="utf-8")
    assert run(*(arg.format(path=path) for arg in command)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: document id 'demo' appears more than once\n"


def replay_backend(path):
    return OracleBackend(str(path), replay=True)


@pytest.mark.parametrize("load, record, complaint", [
    (replay_backend, {"doc_id": "d", "window_index": True, "completion": "c"},
     "window_index must be int, not true"),
    (replay_backend, {"doc_id": 7, "window_index": 0, "completion": "c"}, "doc_id must be str, not 7"),
    (replay_backend, {"doc_id": "d", "completion": "c"}, "window_index must be int, not null"),
    (replay_backend, ["d", 0, "c"], "is not a JSON object"),
    (replay_backend, '{"doc_id": "d"', "invalid JSON"),
    (read_pairs, {"doc_id": "d", "window_index": 0, "prompt": None, "completion": "c"},
     "prompt must be str, not null"),
])
def test_backend_record_fields_are_type_checked(tmp_path, load, record, complaint):
    path = tmp_path / "records.jsonl"
    path.write_text((record if isinstance(record, str) else json.dumps(record)) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"record on line 1.*{complaint}"):
        load(str(path))


def test_parse_warnings_go_to_stderr(tmp_path, capsys):
    src = tmp_path / "zero.conllu"
    src.write_text("# newdoc id = d\n# sent_id = s1\n"
                   "1\tAnna\t_\t_\t_\t_\t0\t_\t_\t_\n"
                   "1.1\t_\t_\t_\t_\t_\t_\t_\t1:nsubj\tEntity=(e1\n"
                   "2\tsings\t_\t_\t_\t_\t1\t_\t_\tEntity=e1)\n\n", encoding="utf-8")
    assert run("convert", str(src), "--format", "minimal") == 0
    captured = capsys.readouterr()
    assert captured.out == "Anna <ent1> sings </ent>\n"
    assert captured.err == (f"warning: {src}: d/s1: mention bracket on empty node 1.1 "
                            "approximated to surface span\n")


def test_build_backend_kinds(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text("")
    assert isinstance(build_backend(JobConfig(backend="empty")), EmptyBackend)
    replay = build_backend(JobConfig(backend="replay", replay=str(p)))
    assert isinstance(replay, OracleBackend) and replay.replay
    oracle = build_backend(JobConfig(backend="oracle", oracle=str(p)))
    assert isinstance(oracle, OracleBackend) and not oracle.replay
    http = build_backend(JobConfig(backend="http", url="http://u", model="m",
                                   max_tokens=1))
    assert isinstance(http, HttpBackend)
    assert (http.url, http.model, http.max_tokens) == ("http://u", "m", 1)
    with pytest.raises(UsageError):
        build_backend(JobConfig(backend="nonsense"))


def test_cli_import_loads_no_third_party_module():
    # scoring and the http backend need nothing beyond the standard library:
    # with requests and urllib3 blocked, an http backend is built and makes
    # one request (to a refused port), and only corefkit is loaded from
    # outside the standard library
    src = str(Path(corefkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with socket.socket() as probe_socket:
        probe_socket.bind(("127.0.0.1", 0))
        port = probe_socket.getsockname()[1]
    probe = ("import sys; sys.modules.update(requests=None, urllib3=None); "
             "before = set(sys.modules); import corefkit.cli as cli; "
             "from corefkit.pipeline import BackendError; "
             "backend = cli.build_backend(cli.JobConfig(backend='http', "
             f"url='http://127.0.0.1:{port}/v1/completions', model='m', timeout=5))\n"
             "try: backend.generate('p')\n"
             "except BackendError: pass\n"
             "else: sys.exit('no BackendError')\n"
             "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (0, "['corefkit']\n")


def test_public_api_names_resolve():
    missing = [n for n in corefkit.__all__ if not hasattr(corefkit, n)]
    assert missing == []


def test_http_backend_requires_url_and_model(gold_path, capsys):
    assert run("annotate", gold_path, "--backend", "http") == 1
    assert "--url and --model" in capsys.readouterr().err


def test_malformed_input_exits_2_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.conllu"
    bad.write_text("# newdoc id = x\n# sent_id = s1\n1\tonly\ttwo\n\n",
                   encoding="utf-8")
    assert run("convert", str(bad)) == 2
    err = capsys.readouterr().err
    assert "bad.conllu" in err and "line 3" in err


def test_multiword_token_without_its_words_exits_2(tmp_path, capsys):
    bad = tmp_path / "mwt.conllu"
    bad.write_text("# newdoc id = x\n# sent_id = s1\n1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n"
                   "2-3\tbc\t_\t_\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    assert run("convert", str(bad)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: line 4: multiword token 2-3 covers words its sentence "
        "does not have"]


def test_overlapping_multiword_tokens_exit_2(tmp_path, capsys):
    """Of ranges 1-2 and 1-3 only one line could be written back."""
    bad = tmp_path / "mwt.conllu"
    bad.write_text("# newdoc id = x\n# sent_id = s1\n"
                   "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_\n1-3\tabc\t_\t_\t_\t_\t_\t_\t_\t_\n"
                   "1\ta\t_\t_\t_\t_\t0\t_\t_\t_\n2\tb\t_\t_\t_\t_\t1\t_\t_\t_\n"
                   "3\tc\t_\t_\t_\t_\t1\t_\t_\t_\n\n", encoding="utf-8")
    assert run("convert", str(bad)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: line 4: multiword token 1-3 shares words with 1-2 on line 3"]


def test_mention_with_empty_span_exits_2(tmp_path, capsys):
    bad = tmp_path / "empty.conllu"
    bad.write_text("# newdoc id = x\n# sent_id = s1\n"
                   "2.1\t_\t_\t_\t_\t_\t_\t_\t_\tEntity=(e1\n"
                   "1\tw\t_\t_\t_\t_\t0\t_\t_\tEntity=e1)\n"
                   "2\tx\t_\t_\t_\t_\t1\t_\t_\t_\n\n", encoding="utf-8")
    assert run("convert", str(bad)) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [
        f"error: {bad}: document 'x': mention of chain 'e1' covers no token "
        f"in sentence 's1'"]


@pytest.mark.parametrize("command", [("convert", "--format", "crac"), ("export-train",)])
def test_crossing_mentions_exit_2(tmp_path, capsys, command):
    # valid CoNLL-U, but no inline format nests e1 = a b c and e2 = b c d
    path = tmp_path / "crossing.conllu"
    path.write_text("# newdoc id = x\n# sent_id = s1\n" + "".join(
        f"{i}\t{w}\t_\t_\t_\t_\t{int(i > 1)}\t_\t_\tEntity={entity}\n"
        for i, (w, entity) in enumerate(zip("abcd", ["(e1", "(e2", "e1)", "e2)"]), start=1))
        + "\n", encoding="utf-8")
    assert run(command[0], str(path), *command[1:]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: document 'x': crossing mentions of chains 'e1' and 'e2' "
        "in sentence 's1'; normalize before encoding"]


def test_missing_file_exits_2(capsys):
    assert run("convert", "/nonexistent/file.conllu") == 2
    # the message names the file once
    assert capsys.readouterr().err.startswith(
        "error: cannot read /nonexistent/file.conllu: [Errno 2]")


def test_bad_flag_exits_1(gold_path, capsys):
    assert run("annotate", gold_path, "--preset", "gigantic") == 1


def test_jobs_flag_keeps_document_order(tmp_path, capsys):
    docs = []
    for i in range(4):
        text = SISTER_CONLLU.replace("demo", f"demo{i}")
        docs.append(text)
    multi = tmp_path / "many.conllu"
    multi.write_text("".join(docs), encoding="utf-8")
    assert run("annotate", str(multi), "--backend", "empty", "--jobs", "3") == 0
    out = parse_conllu(capsys.readouterr().out)
    assert [d.doc_id for d in out] == [f"demo{i}" for i in range(4)]


def test_jobs_bound_documents_in_flight_and_read_ahead(tmp_path, monkeypatch, capsys):
    # documents of 1 to 8 windows, one sentence each
    rng = random.Random(7)
    docs = [random_document(f"d{i}", SynthConfig(sentences=(n, n)), rng)
            for i, n in enumerate([8, 1, 1, 3, 1, 5, 2, 1, 8, 1, 4, 1, 6, 1, 1, 7])]
    path = tmp_path / "many.conllu"
    path.write_text(serialize_corpus(docs), encoding="utf-8")
    lock = threading.Lock()
    seen = {"read": 0, "done": 0, "held": 0, "running": 0, "most_running": 0,
            "calls": 0, "most_calls": 0}

    def bump(key, by, top=None):
        with lock:
            seen[key] += by
            if top:
                seen[top] = max(seen[top], seen[key])

    class Recording(EmptyBackend):
        def generate(self, prompt, ref=None):
            bump("calls", 1, "most_calls")
            time.sleep(0.002)
            bump("calls", -1)
            return super().generate(prompt, ref)

    def read(lines):
        for doc in parse_lines(lines):
            bump("read", 1)
            with lock:  # read and not yet finished
                seen["held"] = max(seen["held"], seen["read"] - seen["done"])
            yield doc

    def annotate(doc, backend, cfg):
        bump("running", 1, "most_running")
        try:
            return annotate_document(doc, backend, cfg)
        finally:
            bump("running", -1)
            bump("done", 1)

    parse_lines, annotate_document = cli.iter_conllu, pipeline.annotate_document
    monkeypatch.setattr(cli, "iter_conllu", read)
    monkeypatch.setattr(pipeline, "annotate_document", annotate)
    monkeypatch.setattr(cli, "build_backend", lambda job: Recording())
    assert run("annotate", str(path), "--sentences-per-batch", "1", "--jobs", "3") == 0
    assert [d.doc_id for d in parse_conllu(capsys.readouterr().out)] == [d.doc_id for d in docs]
    assert seen["most_running"] == seen["most_calls"] == 3
    assert seen["held"] <= 2 * 3
    assert seen["read"] == seen["done"] == len(docs)


@contextmanager
def reading(mode, shares=2):
    """Within, evaluate reads its --pred files, small ones too, in forked
    workers ("worker") or in process ("in-process", forced by a thread kept
    alive meanwhile); export-train and convert likewise deal each file out
    to ``shares`` shares, or read it in process, and annotate writes its
    output from a forked writer, or in process. Yields the pids forked. On
    leaving, checks that no child process is left behind."""
    forked, fork, stop = [], os.fork, threading.Event()

    def counted():
        pid = fork()
        forked.append(pid)
        return pid

    alive = threading.Thread(target=stop.wait)
    if mode == "in-process":
        alive.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", counted)
            mp.setattr(workers, "MIN_BYTES", 0)
            mp.setattr(workers, "_shares", lambda: shares)
            yield forked
    finally:
        stop.set()
        if mode == "in-process":
            alive.join(timeout=10)
            assert not alive.is_alive()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def evaluate(mode, *argv):
    """The exit code of ``evaluate ARGV`` run as ``reading(mode)`` sets; a
    worker run forks once for each --pred file but stdin and missing ones."""
    with reading(mode) as forked:
        code = run("evaluate", *argv)
    preds = list(itertools.takewhile(lambda a: not a.startswith("-") or a == "-",
                                     argv[argv.index("--pred") + 1:]))
    assert len(forked) == (mode == "worker") * sum(map(os.path.isfile, preds))
    return code


@pytest.mark.parametrize("mode", ["worker", "in-process"])
def test_evaluate_streamed_equals_whole_list_score(tmp_path, capsys, mode):
    [(_, gold_docs)] = random_corpus(12, SynthConfig(p_zero=0.2, p_discontinuous=0.1,
                                                     seed=4)).datasets
    # every other chain predicted, the documents in reverse order, the fourth
    # missing and one more that the gold does not have
    pred_docs = [Document(d.doc_id, d.sentences,
                          dict(list(d.chains.items())[::2]), d.meta) for d in gold_docs]
    pred_docs = [*pred_docs[:3], *pred_docs[4:], Document("extra", gold_docs[0].sentences)]
    pred_docs.reverse()
    gold, pred = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
    gold.write_text(serialize_corpus(gold_docs), encoding="utf-8")
    pred.write_text(serialize_corpus(pred_docs), encoding="utf-8")
    report = metrics.conll_f1(Corpus([("gold", parse_conllu(gold.read_text()))]),
                              Corpus([("gold", parse_conllu(pred.read_text()))]))
    assert 0 < report.macro_average < 100
    assert report.warnings == [f"document {gold_docs[3].doc_id!r} missing from prediction; "
                               "scored as empty"]
    assert evaluate(mode, "--gold", str(gold), "--pred", str(pred)) == 0
    captured = capsys.readouterr()
    assert captured.out == report.to_json() + "\n"
    assert captured.err == "".join(f"warning: {w}\n" for w in report.warnings)

    # a repeated id is refused on either side, also once every gold document
    # has found its prediction
    for side in (gold, pred):
        for path in (gold, pred):
            path.write_text(serialize_corpus(gold_docs) + (
                serialize_conllu(gold_docs[0]) if path == side else ""), encoding="utf-8")
        assert evaluate(mode, "--gold", str(gold), "--pred", str(pred)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {side}: document id {gold_docs[0].doc_id!r} "
                                "appears more than once\n")


ZERO_BRACKET = ("# newdoc id = z\n# sent_id = s1\n1\tAnna\t_\t_\t_\t_\t0\t_\t_\t_\n"
                "1.1\t_\t_\t_\t_\t_\t_\t_\t1:nsubj\tEntity=(e1\n"
                "2\tsings\t_\t_\t_\t_\t1\t_\t_\tEntity=e1)\n\n")


def test_evaluate_reads_alike_in_a_worker_and_in_process(tmp_path, monkeypatch, capsys):
    [(_, docs)] = random_corpus(300, SynthConfig(seed=6)).datasets
    text, third = serialize_corpus(docs), f"# newdoc id = {docs[2].doc_id}\n"
    assert len(text.encode()) > 1 << 17  # more than a pipe holds, so a worker waits on it
    files = {"gold": text, "pred": text, "other": text,
             # a warning in document 1 of either side
             "warned": ZERO_BRACKET + text,
             # a malformed line in document 3
             "malformed": text.replace(third, third + "1\tx\n"),
             # bytes that are not UTF-8 after the last document
             "latin1": text + "# newdoc id = more\ncaf\xe9\n",
             # the gold's first document cannot be read: the workers are stopped
             "bad-gold": text.replace("\t", " ", 1)}
    paths = {}
    for name, body in files.items():
        paths[name] = tmp_path / name / f"{name.split('-')[0]}.conllu"
        paths[name].parent.mkdir()
        paths[name].write_bytes(body.encode("latin-1" if name == "latin1" else "utf-8"))
    gold, pred = str(paths["gold"]), str(paths["pred"])
    cases = [
        ("--gold", gold, "--pred", pred, "--table"),
        ("--gold", gold, "--pred", "-", "--table"),
        ("--gold", str(paths["warned"]), "--pred", str(paths["warned"])),
        ("--gold", gold, "--pred", str(paths["malformed"])),
        ("--gold", gold, "--pred", str(paths["latin1"])),
        ("--gold", gold, "--pred", str(tmp_path / "missing.conllu")),
        ("--gold", str(paths["bad-gold"]), "--pred", pred),
        ("--gold", gold, str(paths["other"]), "--pred", str(paths["other"]), gold, "--table"),
    ]
    seen = []
    for argv in cases:
        results = []
        for mode in ("worker", "in-process"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = evaluate(mode, *argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1], argv
        seen.append(results[0])
    assert [code for code, _, _ in seen] == [0, 0, 0, 2, 2, 2, 2, 0]
    assert seen[1] == seen[0]  # stdin, read in process either way
    assert seen[2][2] == 2 * (f"warning: {paths['warned']}: z/s1: mention bracket on "
                              "empty node 1.1 approximated to surface span\n")
    line = files["malformed"].splitlines().index("1\tx") + 1
    assert seen[3][2] == (f"error: {paths['malformed']}: line {line}: expected 10 "
                          "tab-separated columns, got 2\n")
    assert seen[4][2].startswith(f"error: cannot read {paths['latin1']}: 'utf-8' codec")
    assert seen[5][2].startswith(f"error: cannot read {tmp_path / 'missing.conllu'}: ")
    assert seen[6][2] == (f"error: {paths['bad-gold']}: line 3: expected 10 "
                          "tab-separated columns, got 9\n")
    assert [row.split()[-1] for row in seen[7][1].splitlines()] == [
        "conll_f1", "100.00", "100.00", "100.00"]


def test_evaluate_starts_its_worker_before_reading_the_gold(gold_path, monkeypatch, capsys):
    log, lines, fork = [], cli._lines, os.fork

    def logged_lines(path):
        log.append("read")
        return lines(path)

    def logged_fork():
        pid = fork()
        log.append("fork")  # the worker's own log is a copy, not this one
        return pid

    monkeypatch.setattr(cli, "_lines", logged_lines)
    monkeypatch.setattr(os, "fork", logged_fork)
    monkeypatch.setattr(workers, "MIN_BYTES", 0)
    monkeypatch.setattr(workers, "_shares", lambda: 2)
    assert run("evaluate", "--gold", gold_path, "--pred", gold_path) == 0
    assert log == ["fork", "read"]


def test_evaluate_forks_only_for_a_file_of_at_least_min_bytes(gold_path, monkeypatch,
                                                                capsys):
    size, forked, fork = os.path.getsize(gold_path), [], os.fork

    def counted():
        forked.append(fork())
        return forked[-1]

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(workers, "_shares", lambda: 2)
    outputs = []
    for min_bytes, forks in ((workers.MIN_BYTES, 0), (size + 1, 0), (size, 1)):
        monkeypatch.setattr(workers, "MIN_BYTES", min_bytes)
        forked.clear()
        assert run("evaluate", "--gold", gold_path, "--pred", gold_path, "--table") == 0
        assert len(forked) == forks, min_bytes
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == outputs[2]


def test_evaluate_reads_in_process_when_no_process_can_be_forked(gold_path, monkeypatch,
                                                                  capsys):
    assert run("evaluate", "--gold", gold_path, "--pred", gold_path, "--table") == 0
    expected = capsys.readouterr()

    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(workers, "MIN_BYTES", 0)
    assert run("evaluate", "--gold", gold_path, "--pred", gold_path, "--table") == 0
    assert capsys.readouterr() == expected


STOPPING_WORKER = """\
import os, signal, sys, time
from corefkit import cli, workers

parse, serialize = cli.iter_conllu, cli.serialize_conllu
parent, how = os.getpid(), sys.argv.pop(1)

def read(lines):  # a worker dies after reading two documents, or hangs before one
    for n, doc in enumerate(parse(lines)):
        if os.getpid() != parent:
            if how == "dies" and n == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            if how == "hangs":
                time.sleep(120)
        yield doc

def write(doc):  # or hangs before it writes one
    if how == "hangs writing" and os.getpid() != parent:
        time.sleep(120)
    return serialize(doc)

if how == "switches often":  # threads take turns every microsecond; else runs as it is
    sys.setswitchinterval(1e-6)
cli.iter_conllu, cli.serialize_conllu = read, write
workers.MIN_BYTES, workers._shares = 0, lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def stopping_worker(how, *argv):
    """``corefkit ARGV`` run by STOPPING_WORKER in a fresh process."""
    src = str(Path(corefkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", STOPPING_WORKER, how, *argv],
                          capture_output=True, text=True, timeout=60, env=env)


@pytest.mark.parametrize("how", ["dies", "hangs"])
def test_a_worker_that_stops_ends_the_run(tmp_path, how):
    # a worker that dies is an error; one that hangs is killed once the gold
    # side fails, so neither run waits on it
    [(_, docs)] = random_corpus(300, SynthConfig(seed=6)).datasets
    gold, pred = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
    text = serialize_corpus(docs)
    pred.write_text(text, encoding="utf-8")
    gold.write_text(text if how == "dies" else text.replace("\t", " ", 1), encoding="utf-8")
    proc = stopping_worker(how, "evaluate", "--gold", str(gold), "--pred", str(pred))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: {pred}: the process reading it ended with status -9 before the end "
        "of the file\n" if how == "dies" else
        f"error: {gold}: line 3: expected 10 tab-separated columns, got 9\n")


@pytest.mark.parametrize("how", ["dies", "hangs"])
@pytest.mark.parametrize("command", ["export-train", "convert"])
def test_a_dealt_out_worker_that_stops_ends_the_run(tmp_path, command, how):
    # the caller reads share 0 and a worker share 1: a worker that dies is
    # an error, and one that hangs is killed once the caller meets the fault
    # in its own document 0, so neither run waits on it
    [(_, docs)] = random_corpus(300, SynthConfig(seed=6)).datasets
    gold, out = tmp_path / "gold.conllu", tmp_path / "out.txt"
    text = serialize_corpus(docs)
    bad = f"# newdoc id = {docs[0].doc_id}\n"
    gold.write_text(text if how == "dies" else text.replace(bad, bad + "1\tx\n"),
                    encoding="utf-8")
    proc = stopping_worker(how, command, str(gold), "-o", str(out))
    assert (proc.returncode, proc.stdout) == (2, "")
    line = text.splitlines().index(bad.strip()) + 2
    assert proc.stderr == (
        f"error: {gold}: the process reading it ended with status -9 before the end "
        "of the file\n" if how == "dies" else
        f"error: {gold}: line {line}: expected 10 tab-separated columns, got 2\n")
    assert not out.exists()


CROSSING = ("# newdoc id = x\n# sent_id = s1\n" + "".join(
    f"{i}\t{w}\t_\t_\t_\t_\t{int(i > 1)}\t_\t_\tEntity={entity}\n"
    for i, (w, entity) in enumerate(zip("abcd", ["(e1", "(e2", "e1)", "e2)"]), start=1)) + "\n")


@pytest.mark.parametrize("shares", [2, 3])
def test_export_and_convert_read_alike_dealt_out_and_in_process(tmp_path, monkeypatch,
                                                                capsys, shares):
    [(_, docs)] = random_corpus(300, SynthConfig(seed=6)).datasets
    text = serialize_corpus(docs)
    # document k is share k % shares's: the caller's process reads share 0
    header = [f"# newdoc id = {d.doc_id}\n" for d in docs]

    def malformed(*ks):  # a row of two columns opens each document named
        out = text
        for k in ks:
            out = out.replace(header[k], header[k] + "1\tx\n")
        return out

    warned = [ZERO_BRACKET.replace("= z\n", f"= z{k}\n") for k in range(4)]
    # one document of ~90 KB, so its end is read in a later block than its header
    big = serialize_conllu(random_document("big", SynthConfig(sentences=(400, 400)),
                                           random.Random(6)))
    files = {
        "gold": text,
        # a worker's document first, then the caller's; then the other way round
        "worker-first": malformed(1, 2 * shares),
        "caller-first": malformed(shares, shares + 1),
        "preamble": "# global.columns = ID FORM\n1\tx\t_\t_\t_\t_\t0\t_\t_\t_\n\n" + text,
        # the caller's document `shares` and the next, a worker's, share an id
        "repeated": text.replace(header[shares + 1], header[shares]),
        "warned": "".join(warned) + text,
        # not UTF-8 at the end of a worker's document: the warned document
        # before it, the caller's, is whole once the worker's header is read
        "latin1": warned[0] + big + "# caf\xe9\n" + text,
        "crossing": text.replace(header[1], CROSSING + header[1]) + "1\tx\n",
        # a warning in the sentence before the crossing one: printed before the error
        "crossing-warned": text.replace(header[1], warned[0].replace("= z0\n", "= zx\n")
                                        + CROSSING.split("\n", 1)[1].replace("s1", "s2")
                                        + header[1]),
        # the caller fails late, while a worker waits on a full pipe (below)
        "late": malformed(120),
    }
    assert len(text.encode()) > 1 << 17  # more than a pipe holds
    assert len(big.encode()) > 1 << 16  # more than a read block
    paths = {}
    for name, body in files.items():
        paths[name] = tmp_path / f"{name}.conllu"
        paths[name].write_bytes(body.encode("latin-1" if name == "latin1" else "utf-8"))
    seen = {}
    for name, path in paths.items():
        for command in (("export-train",), ("convert", "--format", "minimal")):
            results = []
            for mode in ("worker", "in-process"):
                with reading(mode, shares) as forked:
                    code = run(*command, str(path))
                assert len(forked) == (mode == "worker") * (shares - 1)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            assert results[0] == results[1], (name, command)
            seen[name, command[0]] = results[0]
    for command in ("export-train", "convert"):
        codes = {name: seen[name, command][0] for name in files}
        assert codes == {name: 0 if name in ("gold", "warned") else 2 for name in files}
        err = {name: seen[name, command][2] for name in files}

        def row(k):  # the malformed row's line in its file
            return files[f"{k}"].splitlines().index("1\tx") + 1

        assert err["worker-first"] == (f"error: {paths['worker-first']}: line "
                                       f"{row('worker-first')}: expected 10 tab-separated "
                                       "columns, got 2\n")
        assert err["caller-first"] == (f"error: {paths['caller-first']}: line "
                                       f"{row('caller-first')}: expected 10 tab-separated "
                                       "columns, got 2\n")
        assert err["preamble"] == (f"error: {paths['preamble']}: line 3: sentence before "
                                   "any '# newdoc id' header\n")
        assert err["repeated"] == (f"error: {paths['repeated']}: document id "
                                   f"{docs[shares].doc_id!r} appears more than once\n")
        warning = ": z{}/s1: mention bracket on empty node 1.1 approximated to surface span\n"
        assert err["warned"] == "".join(f"warning: {paths['warned']}" + warning.format(k)
                                        for k in range(4))
        assert err["latin1"].startswith(f"warning: {paths['latin1']}" + warning.format(0)
                                        + f"error: cannot read {paths['latin1']}: 'utf-8' codec")
        assert err["crossing"].startswith(f"error: {paths['crossing']}: document 'x': "
                                          "crossing mentions")
        assert err["crossing-warned"].startswith(
            f"warning: {paths['crossing-warned']}" + warning.format("x")
            + f"error: {paths['crossing-warned']}: document 'zx': crossing mentions")
        assert err["late"] == (f"error: {paths['late']}: line {row('late')}: expected 10 "
                               "tab-separated columns, got 2\n")
    pairs = seen["gold", "export-train"][1]
    assert pairs == "".join(p.to_json() + "\n" for d in docs for p in
                            pipeline.export_training_pairs(d, pipeline.PipelineConfig()))
    # each worker has more than a pipe holds left to send when the caller fails
    index, left = {d.doc_id: k for k, d in enumerate(docs)}, [0] * shares
    for line in pairs.splitlines(keepends=True):
        k = index[json.loads(line)["doc_id"]]
        left[k % shares] += len(line.encode()) if k > 120 else 0
    assert min(left[1:]) > 1 << 16


def test_export_reads_in_process_when_a_fork_fails(tmp_path, monkeypatch, capsys):
    [(_, docs)] = random_corpus(30, SynthConfig(seed=6)).datasets
    path = tmp_path / "corpus.conllu"
    path.write_text(serialize_corpus(docs), encoding="utf-8")
    assert run("export-train", str(path)) == 0
    expected = capsys.readouterr()
    forked, fork = [], os.fork

    def second_fails():  # the first worker reads share 1; the caller reads share 2
        if forked:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forked.append(fork())
        return forked[-1]

    monkeypatch.setattr(os, "fork", second_fails)
    monkeypatch.setattr(workers, "MIN_BYTES", 0)
    monkeypatch.setattr(workers, "_shares", lambda: 3)
    assert run("export-train", str(path)) == 0
    assert capsys.readouterr() == expected
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_annotate_writes_alike_forked_and_in_process(tmp_path, capsys):
    [(_, docs)] = random_corpus(300, SynthConfig(p_zero=0.2, p_discontinuous=0.1,
                                                 seed=6)).datasets
    [(_, others)] = random_corpus(20, SynthConfig(seed=7), dataset="other").datasets
    text, header = serialize_corpus(docs), [f"# newdoc id = {d.doc_id}\n" for d in docs]
    warned = [ZERO_BRACKET.replace("= z\n", f"= z{k}\n") for k in range(4)]
    big = serialize_conllu(random_document("big", SynthConfig(sentences=(400, 400)),
                                           random.Random(6)))
    files = {
        "gold": text,
        "other": serialize_corpus(others),
        # a warning in each of four documents
        "warned": "".join(warned) + text,
        # a malformed row in document 280, once the writer has been sent more
        # than a pipe holds (asserted below)
        "late": text.replace(header[280], header[280] + "1\tx\n"),
        # not UTF-8 after a ~90 KB document, read in a later block than its header
        "latin1": warned[0] + big + "# caf\xe9\n" + text,
        "repeated": text.replace(header[11], header[10]),
    }
    paths = {}
    for name, body in files.items():
        paths[name] = tmp_path / f"{name}.conllu"
        paths[name].write_bytes(body.encode("latin-1" if name == "latin1" else "utf-8"))
    gold = str(paths["gold"])
    pairs = {}
    for fmt in ("crac", "explicit", "minimal", "headword"):
        pairs[fmt] = str(tmp_path / f"pairs-{fmt}.jsonl")
        assert run("export-train", gold, str(paths["other"]), "--format", fmt,
                   "-o", pairs[fmt]) == 0
    # the pairs of every other document only: the rest stay unannotated
    half = tmp_path / "half.jsonl"
    half.write_text("".join(
        line for line in Path(pairs["headword"]).read_text("utf-8").splitlines(keepends=True)
        if int(json.loads(line)["doc_id"].rsplit("d", 1)[1]) % 2), encoding="utf-8")

    def oracle(fmt="headword", source=None):
        return ("--backend", "oracle", "--oracle", source or pairs[fmt], "--format", fmt)

    cases = {
        **{fmt: (gold, *oracle(fmt)) for fmt in pairs},
        "warned": (str(paths["warned"]), "--backend", "empty"),
        "late": (str(paths["late"]), *oracle()),
        "latin1": (str(paths["latin1"]), "--backend", "empty"),
        "repeated": (str(paths["repeated"]), *oracle()),
        "partial": (gold, *oracle(source=str(half))),
        "stdout": (gold, *oracle(), "-o", "-"),
        "two-files": (gold, str(paths["other"]), *oracle()),
        "jobs": (gold, *oracle(), "--jobs", "2"),
    }
    seen = {}
    for name, argv in cases.items():
        results = []
        for mode in ("worker", "in-process"):
            pred, diags = tmp_path / mode / "pred.conllu", tmp_path / mode / "diags.jsonl"
            pred.parent.mkdir(exist_ok=True)
            pred.unlink(missing_ok=True)
            diags.unlink(missing_ok=True)
            with reading(mode) as forked:
                code = run("annotate", *argv, *(() if "-o" in argv else ("-o", str(pred))),
                           "--diagnostics", str(diags))
            assert len(forked) == (mode == "worker"), name
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err,
                            *(p.read_text(encoding="utf-8") if p.exists() else None
                              for p in (pred, diags))))
        assert results[0] == results[1], name
        seen[name] = results[0]
    assert {name: code for name, (code, *_) in seen.items()} == {
        "crac": 0, "explicit": 0, "minimal": 0, "headword": 0, "warned": 0, "late": 2,
        "latin1": 2, "repeated": 2, "partial": 3, "stdout": 0, "two-files": 0, "jobs": 0}
    # oracle closure, with zero and discontinuous mentions in the gold
    predicted = seen["headword"][3]
    assert metrics.conll_f1(Corpus([("gold", docs)]), Corpus([(
        "gold", parse_conllu(predicted))])).macro_average == pytest.approx(100.0)
    assert any(m.is_zero for d in docs for m in d.mentions())
    assert any(len(m.fragments) > 1 for d in docs for m in d.mentions())
    assert seen["stdout"][1] == seen["jobs"][3] == predicted
    assert seen["two-files"][3].startswith(predicted)
    assert [d.doc_id for d in parse_conllu(seen["two-files"][3][len(predicted):])] == [
        d.doc_id for d in others]
    warning = ": z{}/s1: mention bracket on empty node 1.1 approximated to surface span\n"
    assert seen["warned"][2] == "".join(f"warning: {paths['warned']}" + warning.format(k)
                                        for k in range(4))
    line = files["late"].splitlines().index("1\tx") + 1
    assert seen["late"][2:] == (f"error: {paths['late']}: line {line}: expected 10 "
                                "tab-separated columns, got 2\n", None, None)
    assert seen["latin1"][2].startswith(f"warning: {paths['latin1']}" + warning.format(0)
                                        + f"error: cannot read {paths['latin1']}: 'utf-8' codec")
    assert seen["repeated"][2] == (f"error: {paths['repeated']}: document id "
                                   f"{docs[10].doc_id!r} appears more than once\n")
    code, _, err, partial, diagnostics = seen["partial"]
    assert err.startswith("error: ") and err.endswith(" windows left unannotated\n")
    assert [d.doc_id for d in parse_conllu(partial)] == [d.doc_id for d in docs]
    assert "window left unannotated" in diagnostics
    # the writer is sent more than a pipe holds before the late fault is met
    assert sum(len(pickle.dumps((d.doc_id, d.mentions()))) for d in docs[:280]) > 1 << 16


@pytest.mark.parametrize("how", ["dies", "hangs"])
def test_a_writer_that_stops_ends_the_run(tmp_path, how):
    # one process reads the input and writes the output: one that dies while
    # reading is an error, and one whose writing half hangs is killed once
    # the caller meets the fault its reading half sent, so neither run waits
    [(_, docs)] = random_corpus(300, SynthConfig(seed=6)).datasets
    gold, pred = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
    text = serialize_corpus(docs)
    bad = f"# newdoc id = {docs[5].doc_id}\n"
    gold.write_text(text if how == "dies" else text.replace(bad, bad + "1\tx\n"),
                    encoding="utf-8")
    proc = stopping_worker("dies" if how == "dies" else "hangs writing", "annotate",
                           str(gold), "--backend", "empty", "-o", str(pred))
    assert (proc.returncode, proc.stdout) == (2, "")
    line = text.splitlines().index(bad.strip()) + 2
    assert proc.stderr == (
        "error: the process reading the input and writing the output ended with "
        "status -9 before its end\n" if how == "dies" else
        f"error: {gold}: line {line}: expected 10 tab-separated columns, got 2\n")
    assert not pred.exists()


def test_the_writer_checks_each_document_id(tmp_path, monkeypatch, capsys):
    # the writer writes each prediction over the oldest document it holds; a
    # caller that sends them out of order (here, the first two swapped) is an
    # error, not wrong output
    [(_, docs)] = random_corpus(2, SynthConfig(seed=6)).datasets
    path, pred = tmp_path / "corpus.conllu", tmp_path / "pred.conllu"
    path.write_text(serialize_corpus(docs), encoding="utf-8")
    annotate = pipeline.annotate_documents  # cmd_annotate looks it up there when it runs

    def swapped(*args, **kwargs):
        first, second = annotate(*args, **kwargs)
        return iter([second, first])

    monkeypatch.setattr(pipeline, "annotate_documents", swapped)
    with reading("worker") as forked:
        assert run("annotate", str(path), "--backend", "empty", "-o", str(pred)) == 2
    assert len(forked) == 1
    assert capsys.readouterr() == ("", f"error: the prediction of document "
                                       f"{docs[1].doc_id!r} came out of order\n")
    assert not pred.exists()


@pytest.mark.parametrize("fmt", ["crac", "explicit", "minimal", "headword"])
def test_the_words_a_writer_sends_annotate_as_the_whole_document(fmt):
    # the caller annotates what the writer sends of each document, not the
    # document itself: the oracle finds the same mentions and reports on both
    [(_, docs)] = random_corpus(40, SynthConfig(p_zero=0.2, p_discontinuous=0.1,
                                                seed=6)).datasets
    cfg = pipeline.PipelineConfig(fmt=fmt, sentences_per_batch=2, context_budget=40)
    backend = OracleBackend([p for d in docs for p in pipeline.export_training_pairs(d, cfg)])
    zeros = 0
    for doc in docs:
        light = workers._rebuilt(*pickle.loads(pickle.dumps(workers._words(doc))))
        assert [[(t.position, t.form, t.dep_head) for t in s.tokens] for s in light.sentences] \
            == [[(t.position, t.form, t.dep_head) for t in s.tokens] for s in doc.sentences]
        pred, reports = pipeline.annotate_document(doc, backend, cfg)
        light_pred, light_reports = pipeline.annotate_document(light, backend, cfg)
        assert light_pred.mentions() == pred.mentions()
        assert [[(t.position, t.sub_index) for t in s.empty_nodes]
                for s in light_pred.sentences] == [
            [(t.position, t.sub_index) for t in s.empty_nodes] for s in pred.sentences]
        assert light_reports == reports
        assert all(r.annotated for r in reports)
        zeros += sum(m.is_zero for m in pred.mentions())
    assert zeros and any(len(m.fragments) > 1 for d in docs for m in d.mentions())


def test_the_writer_and_its_caller_never_wait_on_each_other(tmp_path, capsys):
    # each of two documents is more than a pipe holds, both as the words the
    # writer sends and as the mentions sent back: forked, at one job and at
    # four, with threads that take turns often, annotate ends, and writes
    # what it writes in process
    cfg = SynthConfig(sentences=(1500, 1500), chains=(100, 100), mentions_per_chain=(20, 30),
                      p_zero=0.2, p_discontinuous=0.1)
    docs = [random_document(f"big{k}", cfg, random.Random(k)) for k in (1, 2)]
    gold, pairs = tmp_path / "gold.conllu", tmp_path / "pairs.jsonl"
    gold.write_text(serialize_corpus(docs), encoding="utf-8")
    assert run("export-train", str(gold), "-o", str(pairs)) == 0
    argv = ("annotate", str(gold), "--backend", "oracle", "--oracle", str(pairs))
    with reading("in-process") as forked:
        assert run(*argv, "-o", str(tmp_path / "expected.conllu")) == 0
    assert not forked
    expected = (tmp_path / "expected.conllu").read_text(encoding="utf-8")
    assert capsys.readouterr() == ("", "")
    for doc, predicted in zip(docs, parse_conllu(expected)):
        assert len(pickle.dumps(workers._words(doc))) > 1 << 16
        assert len(pickle.dumps((doc.doc_id, predicted.mentions()))) > 1 << 16
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}.conllu"
        proc = stopping_worker("switches often", *argv, "--jobs", jobs, "-o", str(out))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert out.read_text(encoding="utf-8") == expected, jobs


def test_annotate_reads_each_input_once(tmp_path, monkeypatch, capsys):
    # forked, the writer is the only reader: the calling process never runs it
    [(_, docs)] = random_corpus(30, SynthConfig(seed=6)).datasets
    paths = [tmp_path / "a.conllu", tmp_path / "b.conllu"]
    for path, part in zip(paths, (docs[:20], docs[20:])):
        path.write_text(serialize_corpus(part), encoding="utf-8")
    log, parse = tmp_path / "reads.log", cli.iter_conllu

    def counted(lines):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return parse(lines)

    monkeypatch.setattr(cli, "iter_conllu", counted)
    seen = []
    for mode in ("worker", "in-process"):
        log.write_text("", encoding="utf-8")
        with reading(mode) as forked:
            assert run("annotate", *map(str, paths), "--backend", "empty") == 0
        reader = forked[0] if mode == "worker" else os.getpid()
        assert log.read_text(encoding="utf-8").split() == [str(reader)] * len(paths)
        seen.append(capsys.readouterr())
    assert seen[0] == seen[1]
    assert [d.doc_id for d in parse_conllu(seen[0].out)] == [d.doc_id for d in docs]


def test_annotate_writes_in_process_when_the_fork_fails(tmp_path, monkeypatch, capsys):
    [(_, docs)] = random_corpus(30, SynthConfig(seed=6)).datasets
    path = tmp_path / "corpus.conllu"
    path.write_text(serialize_corpus(docs), encoding="utf-8")
    assert run("annotate", str(path), "--backend", "empty") == 0
    expected = capsys.readouterr()

    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(workers, "MIN_BYTES", 0)
    monkeypatch.setattr(workers, "_shares", lambda: 2)
    assert run("annotate", str(path), "--backend", "empty") == 0
    assert capsys.readouterr() == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_command_forks_with_one_cpu(tmp_path, monkeypatch, capsys):
    [(_, docs)] = random_corpus(30, SynthConfig(seed=6)).datasets
    gold = tmp_path / "gold.conllu"
    gold.write_text(serialize_corpus(docs), encoding="utf-8")
    commands = [("export-train", str(gold)), ("convert", str(gold)),
                ("annotate", str(gold), "--backend", "empty"),
                ("evaluate", "--gold", str(gold), "--pred", str(gold))]
    seen = []
    for shares in (2, 1):
        with reading("worker", shares) as forked:
            results = [(run(*argv), *capsys.readouterr()) for argv in commands]
        assert len(forked) == (shares == 2) * 4
        seen.append(results)
    assert seen[0] == seen[1]
    assert [code for code, _, _ in seen[1]] == [0, 0, 0, 0]


@pytest.mark.parametrize("between", ["", SISTER_CONLLU], ids=["adjacent", "apart"])
@pytest.mark.parametrize("command", [("export-train",), ("convert", "--format", "minimal")],
                         ids=lambda c: c[0])
def test_first_fault_in_file_order_is_reported(tmp_path, capsys, command, between):
    # document 1 cannot be encoded; the last one is not even valid CoNLL-U
    path = tmp_path / "faults.conllu"
    path.write_text("# newdoc id = x\n# sent_id = s1\n" + "".join(
        f"{i}\t{w}\t_\t_\t_\t_\t{int(i > 1)}\t_\t_\tEntity={entity}\n"
        for i, (w, entity) in enumerate(zip("abcd", ["(e1", "(e2", "e1)", "e2)"]), start=1))
        + "\n" + between + "# newdoc id = y\n# sent_id = s1\n1\tonly\ttwo\n\n",
        encoding="utf-8")
    assert run(command[0], str(path), *command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: document 'x': crossing mentions")
    # the same input with document 1 left out fails on the malformed line
    text = path.read_text().split("\n\n", 1)[1]
    path.write_text(text, encoding="utf-8")
    assert run(command[0], str(path), *command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = text.splitlines().index("1\tonly\ttwo") + 1
    assert line == (15 if between else 3)
    assert captured.err == (f"error: {path}: line {line}: expected 10 tab-separated columns, "
                            "got 3\n")


@pytest.mark.parametrize("command, code", [
    (("convert", "{bad}"), 2),
    (("convert", "-"), 2),
    (("decode", "{bad}"), 2),
    (("clean", "{bad}", "{text}"), 2),
    (("clean", "{text}", "{bad}"), 2),
    (("clean", "-", "{text}"), 2),
    (("annotate", "{bad}", "--backend", "empty"), 2),
    (("export-train", "{bad}"), 2),
    (("evaluate", "--gold", "{bad}", "--pred", "{gold}"), 2),
    (("evaluate", "--gold", "{gold}", "--pred", "{bad}"), 2),
    (("stats", "{bad}"), 2),
    (("annotate", "{gold}", "--config", "{bad}"), 1),
    (("export-train", "{gold}", "--config", "{bad}"), 1),
], ids=lambda c: "-".join(a.strip("{}-") for a in c) if isinstance(c, tuple) else None)
def test_input_that_is_not_utf8_is_reported(gold_path, tmp_path, monkeypatch, capsys,
                                            command, code):
    bad, text = tmp_path / "latin1.txt", tmp_path / "text.txt"
    bad.write_bytes(b"caf\xe9\n")
    text.write_text("cafe\n", encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"caf\xe9\n"),
                                                       encoding="utf-8"))
    assert run(*(a.format(bad=bad, text=text, gold=gold_path) for a in command)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    name = "<stdin>" if "-" in command else bad
    assert line.startswith(f"error: cannot read {name}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("mode", ["default", "worker"])
@pytest.mark.parametrize("command", [
    ("convert", "{bad}"),
    ("decode", "{bad}"),
    ("annotate", "{bad}", "--backend", "empty"),
    ("export-train", "{bad}"),
    ("evaluate", "--gold", "{gold}", "--pred", "{bad}"),
    ("stats", "{bad}"),
    ("clean", "{bad}", "{gold}"),
], ids=lambda c: c[0])
def test_input_that_is_not_utf8_is_reported_at_its_line_and_offset(tmp_path, capsys,
                                                                   command, mode):
    # past the first 64 KiB block read, the decoder's position counts from the
    # start of the block; the message names the line and the file offset, read
    # in process (a file under the default MIN_BYTES) and by a forked reader alike
    [(_, docs)] = random_corpus(60, SynthConfig(seed=6)).datasets
    text = serialize_corpus(docs)
    gold, bad = tmp_path / "gold.conllu", tmp_path / "latin1.conllu"
    gold.write_text(text, encoding="utf-8")
    bad.write_bytes((text + "# newdoc id = more\ncaf\xe9\n").encode("latin-1"))
    offset, line = len(text.encode()) + len("# newdoc id = more\ncaf"), text.count("\n") + 2
    assert workers.MIN_BYTES > offset > 1 << 16
    argv = [a.format(bad=bad, gold=gold) for a in command]
    with reading("worker") if mode == "worker" else nullcontext([]) as forked:
        assert run(*argv) == 2
    assert len(forked) == (mode == "worker") * (command[0] in (
        "convert", "annotate", "export-train", "evaluate"))
    assert capsys.readouterr() == ("", f"error: cannot read {bad}: 'utf-8' codec can't decode "
                                       f"byte 0xe9 on line {line}, at byte offset {offset}: "
                                       "invalid continuation byte\n")


def test_stdin_that_is_not_utf8_is_reported_without_a_position(monkeypatch, capsys):
    # stdin cannot be read again to find the bad byte's place in it
    [(_, docs)] = random_corpus(60, SynthConfig(seed=6)).datasets
    body = (serialize_corpus(docs) + "# newdoc id = more\ncaf\xe9\n").encode("latin-1")
    for command in (("stats", "-"), ("clean", "-", "-")):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(body), encoding="utf-8"))
        assert run(*command) == 2
        assert capsys.readouterr() == ("", "error: cannot read <stdin>: 'utf-8' codec can't "
                                           "decode byte 0xe9: invalid continuation byte\n")


def test_a_pipe_that_is_not_utf8_is_reported_without_a_position(tmp_path):
    # a named pipe is read once: the message is stdin's, and nothing waits on
    # a second reader of the pipe
    fifo = tmp_path / "corpus.conllu"
    os.mkfifo(fifo)
    src = str(Path(corefkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    writer = threading.Thread(target=lambda: fifo.write_bytes(
        SISTER_CONLLU.encode() + b"# newdoc id = more\ncaf\xe9\n"))
    writer.start()
    proc = subprocess.run([sys.executable, "-m", "corefkit", "stats", str(fifo)],
                          capture_output=True, text=True, timeout=60, env=env)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: cannot read {fifo}: 'utf-8' codec can't decode byte 0xe9: "
               "invalid continuation byte\n")


def test_replay_runs_are_deterministic(gold_path, tmp_path):
    pairs_path = tmp_path / "pairs.jsonl"
    run("export-train", gold_path, "-o", str(pairs_path))
    replay = tmp_path / "replay.jsonl"
    replay.write_text("\n".join(
        json.dumps({"doc_id": p.doc_id, "window_index": p.window_index,
                    "completion": p.completion})
        for p in read_pairs(pairs_path)) + "\n", encoding="utf-8")
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}.conllu"
        assert run("annotate", gold_path, "--backend", "replay",
                   "--replay", str(replay), "-o", str(out)) == 0
        outs.append(out.read_text(encoding="utf-8"))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("fmt", ["crac", "explicit", "minimal", "headword"])
def test_annotate_reads_a_tag_id_past_the_int_digit_limit_as_text(tmp_path, fmt):
    gold = tmp_path / "gold.conllu"
    [(_, docs)] = random_corpus(3, SynthConfig(seed=1)).datasets
    gold.write_text(serialize_corpus(docs), encoding="utf-8")
    pairs_path = tmp_path / "pairs.jsonl"
    assert run("export-train", str(gold), "--format", fmt, "-o", str(pairs_path)) == 0
    pairs = read_pairs(pairs_path)
    long_tag = {"crac": "x|[e{}]", "explicit": "<ent id=COREF_{}>"}.get(fmt, "<ent{}>")
    outs = []
    for spoiled in (False, True):
        replay = tmp_path / f"replay{spoiled}.jsonl"
        replay.write_text("".join(json.dumps({
            "doc_id": p.doc_id, "window_index": p.window_index,
            "completion": (long_tag.format("9" * 5000) + " " if spoiled and not k else "")
            + p.completion}) + "\n" for k, p in enumerate(pairs)), encoding="utf-8")
        out, diags = tmp_path / f"pred{spoiled}.conllu", tmp_path / f"diags{spoiled}.jsonl"
        assert run("annotate", str(gold), "--format", fmt, "--backend", "replay",
                   "--replay", str(replay), "-o", str(out), "--diagnostics", str(diags)) == 0
        outs.append((parse_conllu(out.read_text(encoding="utf-8")), diags.read_text()))
    (clean_docs, clean_diags), (docs_read, diags_read) = outs
    assert "tag id too long" not in clean_diags
    assert "tag id too long; read as text" in diags_read
    # only the first window's completion was spoiled: the other documents
    # are annotated as without it
    assert len(pairs) > 3 and len(docs_read) == 3
    assert [d.chains for d in docs_read[1:]] == [d.chains for d in clean_docs[1:]]
    assert all(d.chains for d in docs_read)


def test_module_entry_point_runs_as_subprocess(gold_path):
    # the child imports the same corefkit as this test, installed or not
    src = str(Path(corefkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "corefkit", "convert", gold_path,
         "--format", "headword"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN["headword"] + "\n"


def test_round_trip_convert_decode_evaluate(gold_path, tmp_path, capsys):
    # head-anchored tags survive the trip exactly, so scoring closes at 100;
    # span formats would lose head positions (no dependency info in the wire)
    inline = tmp_path / "inline.txt"
    assert run("convert", gold_path, "--format", "headword",
               "-o", str(inline)) == 0
    back = tmp_path / "back.conllu"
    assert run("decode", str(inline), "--format", "headword",
               "--doc-id", "demo", "-o", str(back)) == 0
    capsys.readouterr()
    assert run("evaluate", "--gold", gold_path, "--pred", str(back)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["macro_average"] == pytest.approx(100.0)
