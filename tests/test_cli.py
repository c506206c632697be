"""End-to-end command behavior, exit codes, config handling."""
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corefkit
from corefkit import cli
from corefkit.cli import JobConfig, UsageError, build_backend, main
from corefkit.conllu import parse_conllu, serialize_conllu
from corefkit.pipeline import (EmptyBackend, HttpBackend, OracleBackend, _read_jsonl,
                               load_pairs)

from conftest import GOLDEN, SISTER_CONLLU, make_sister_doc


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
    other = tmp_path / "other.conllu"
    other.write_text(SISTER_CONLLU.replace("demo", "demo2"), encoding="utf-8")
    assert run("convert", gold_path, str(other), "--format", "minimal") == 0
    out = capsys.readouterr().out
    assert out.startswith("# doc = demo\n")
    assert "# doc = demo2\n" in out


def test_convert_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SISTER_CONLLU))
    assert run("convert", "-", "--format", "crac") == 0
    assert capsys.readouterr().out == GOLDEN["crac"] + "\n"


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
    [pair] = load_pairs(str(pairs_path))
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
])
def test_unwritable_output_exits_1(gold_path, tmp_path, capsys, command, flags):
    target = str(tmp_path / "missing" / "out.jsonl")
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
    return OracleBackend(dict(_read_jsonl(path, prompts=False)), replay=True)


@pytest.mark.parametrize("load, record, complaint", [
    (replay_backend, {"doc_id": "d", "window_index": True, "completion": "c"},
     "window_index must be int, not true"),
    (replay_backend, {"doc_id": 7, "window_index": 0, "completion": "c"}, "doc_id must be str, not 7"),
    (replay_backend, {"doc_id": "d", "completion": "c"}, "window_index must be int, not null"),
    (replay_backend, ["d", 0, "c"], "is not a JSON object"),
    (replay_backend, '{"doc_id": "d"', "invalid JSON"),
    (load_pairs, {"doc_id": "d", "window_index": 0, "prompt": None, "completion": "c"},
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
    http = build_backend(JobConfig(backend="http", url="u", model="m",
                                   max_tokens=1))
    assert isinstance(http, HttpBackend)
    assert (http.url, http.model, http.max_tokens) == ("u", "m", 1)
    http.close()
    # one keep-alive connection per job, past urllib3's default pool of 10
    pooled = build_backend(JobConfig(backend="http", url="http://u", model="m", jobs=12))
    assert pooled.session.get_adapter("http://u").poolmanager.connection_pool_kw[
        "maxsize"] == 12
    pooled.close()
    with pytest.raises(UsageError):
        build_backend(JobConfig(backend="nonsense"))


def test_annotate_closes_its_backend(gold_path, monkeypatch):
    closed = []

    class Recording(EmptyBackend):
        def close(self):
            closed.append(True)

    monkeypatch.setattr(cli, "build_backend", lambda job: Recording())
    assert run("annotate", gold_path) == 0
    assert closed == [True]


def test_cli_import_loads_no_third_party_module():
    # requests is imported only when an http backend is built, and scoring
    # needs nothing beyond the standard library
    src = str(Path(corefkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys; before = set(sys.modules); import corefkit.cli; "
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


def test_replay_runs_are_deterministic(gold_path, tmp_path):
    pairs_path = tmp_path / "pairs.jsonl"
    run("export-train", gold_path, "-o", str(pairs_path))
    replay = tmp_path / "replay.jsonl"
    replay.write_text("\n".join(
        json.dumps({"doc_id": p.doc_id, "window_index": p.window_index,
                    "completion": p.completion})
        for p in load_pairs(str(pairs_path))) + "\n", encoding="utf-8")
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}.conllu"
        assert run("annotate", gold_path, "--backend", "replay",
                   "--replay", str(replay), "-o", str(out)) == 0
        outs.append(out.read_text(encoding="utf-8"))
    assert outs[0] == outs[1]


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
