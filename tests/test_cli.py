"""End-to-end command behavior, exit codes, config handling."""
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corefkit
from corefkit.cli import main
from corefkit.conllu import parse_conllu, serialize_conllu
from corefkit.pipeline import load_pairs

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


def test_evaluate_json_output(gold_path, capsys):
    assert run("evaluate", "--gold", gold_path, "--pred", gold_path) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["macro_average"] == pytest.approx(100.0)


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
@pytest.mark.parametrize("flags, config", [
    (["--sentences-per-batch", "0"], None),
    (["--context-budget", "-1"], None),
    ([], {"format": "bogus"}),
    ([], {"jobs": "4"}),
], ids=["zero-batch", "negative-budget", "unknown-format", "string-jobs"])
def test_bad_pipeline_values_are_usage_errors(gold_path, tmp_path, capsys,
                                              command, flags, config):
    if config is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        flags = [*flags, "--config", str(path)]
    assert run(command, gold_path, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
