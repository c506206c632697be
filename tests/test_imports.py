"""What importing the package, and running each command, loads."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corefkit
from corefkit import cli
from corefkit.conllu import serialize_corpus
from corefkit.pipeline import PRESETS
from corefkit.synth import SynthConfig, random_corpus

# run in a fresh interpreter: the exit code of cli.main(argv[2:]), if given,
# and the corefkit modules (and concurrent.futures) loaded by then, after the
# statement in argv[1]
PROBE = """import json, sys
exec(sys.argv[1])
code = None
if len(sys.argv) > 2:
    from corefkit import cli
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:  # --help
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] == "corefkit"
                               or m == "concurrent.futures")]))
"""

CLI = {"corefkit", "corefkit.cli", "corefkit.conllu", "corefkit.formats", "corefkit.diag"}
PIPELINE = {"corefkit.pipeline", "corefkit.align", "corefkit.reindex"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A gold file, its training pairs and its inline text, in a fresh directory."""
    tmp = tmp_path_factory.mktemp("imports")
    [(_, docs)] = random_corpus(8, SynthConfig(p_zero=0.2, seed=3)).datasets
    (tmp / "gold.conllu").write_text(serialize_corpus(docs), encoding="utf-8")
    assert cli.main(["export-train", str(tmp / "gold.conllu"), "-o", str(tmp / "pairs.jsonl")]) == 0
    assert cli.main(["convert", str(tmp / "gold.conllu"), "-o", str(tmp / "gold.txt")]) == 0
    return tmp


def loaded(statement: str, *argv: str, cwd: Path | None = None) -> tuple[int | None, set[str]]:
    src = str(Path(corefkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE, statement, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def test_importing_the_package_loads_no_module_of_it():
    assert loaded("import corefkit") == (None, {"corefkit"})


def test_importing_the_cli_loads_only_the_reader_and_the_formats_besides():
    assert loaded("import corefkit.cli") == (None, CLI)


@pytest.mark.parametrize("argv, code", [
    (("--help",), 0),
    (("annotate", "--help"), 0),
    (("convert", "x", "--format", "bogus"), 1),
    (("annotate", "x", "--preset", "nope"), 1),
    (("export-train", "x", "--preset", "nope"), 1),
])
def test_help_and_argument_errors_load_nothing_more(argv, code):
    # the parser, its --format and --preset choices included, needs no module cli does not load
    assert loaded("pass", *argv) == (code, CLI)


@pytest.mark.parametrize("argv, modules", [
    (("evaluate", "--gold", "gold.conllu", "--pred", "gold.conllu", "-o", "eval.json"),
     {"corefkit.metrics", "corefkit.workers"}),
    (("stats", "gold.conllu", "-o", "stats.json"), {"corefkit.metrics"}),
    (("annotate", "gold.conllu", "--backend", "oracle", "--oracle", "pairs.jsonl",
      "--jobs", "1", "-o", "pred.conllu"), PIPELINE | {"corefkit.workers"}),
    (("annotate", "gold.conllu", "--backend", "oracle", "--oracle", "pairs.jsonl",
      "--jobs", "2", "-o", "pred2.conllu"),
     PIPELINE | {"corefkit.workers", "concurrent.futures"}),
    (("export-train", "gold.conllu", "-o", "pairs2.jsonl"), PIPELINE | {"corefkit.workers"}),
    (("convert", "gold.conllu", "-o", "gold2.txt"), {"corefkit.reindex", "corefkit.workers"}),
    (("decode", "gold.txt", "-o", "decoded.conllu"), set()),
    (("clean", "gold.txt", "gold.txt", "-o", "clean.txt"), {"corefkit.align"}),
], ids=["evaluate", "stats", "annotate-jobs-1", "annotate-jobs-2", "export-train", "convert",
        "decode", "clean"])
def test_each_command_loads_only_the_modules_it_runs(files, argv, modules):
    # evaluate and stats load no pipeline, align, reindex or synth; one
    # document at a time, nothing loads metrics, synth or concurrent.futures
    assert loaded("pass", *argv, cwd=files) == (0, CLI | modules)


def test_every_exported_name_is_its_modules_own():
    assert set(corefkit.__all__) - {"__version__"} == set(corefkit._MODULE_OF)
    for name, module_name in corefkit._MODULE_OF.items():
        module = importlib.import_module(f"corefkit.{module_name}")
        value = getattr(corefkit, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_star_import_and_dir_give_all():
    namespace: dict = {}
    exec("from corefkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(corefkit.__all__)
    assert set(corefkit.__all__) <= set(dir(corefkit))
    assert corefkit.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'corefkit' has no attribute 'nope'"):
        corefkit.nope
    assert not hasattr(corefkit, "nope")


def test_the_parsers_preset_choices_are_the_presets():
    assert cli.PRESET_NAMES == sorted(PRESETS)
