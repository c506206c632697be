"""Coreference annotation with plain-text LLM input/output.

The pieces, in data-flow order: ``conllu`` reads and writes CorefUD-style
CoNLL-U; ``formats`` turns documents into inline-tagged text and back;
``reindex`` keeps chain ids small inside a prompt window; ``pipeline`` runs
the windowed annotate loop and exports training pairs; ``align`` repairs
noisy model output against the original text; ``metrics`` scores chains and
reports corpus statistics; ``synth`` fabricates test data.

Importing the package imports none of them: each name of ``__all__`` is
looked up in its module the first time it is asked for (PEP 562), so
``from corefkit import score`` loads ``conllu`` and ``metrics`` and no more,
and a command of ``corefkit.cli`` loads only what it runs.
"""
import importlib

__version__ = "0.1.0"

# the module that defines each exported name
_MODULES = {
    "align": ("Alignment", "align_tokens", "clean", "edit_similarity"),
    "conllu": ("Chain", "ConlluError", "Corpus", "Document", "Mention", "Sentence",
               "Token", "iter_conllu", "parse_conllu", "serialize_conllu",
               "serialize_corpus"),
    "diag": ("Diagnostic",),
    "formats": ("AnnotatedText", "Format", "FormatError", "TagEvent", "build_events",
                "decode", "encode", "events_to_mentions", "render"),
    "metrics": ("DensityStats", "DistanceCdf", "ScoreReport", "antecedent_cdf",
                "conll_f1", "density", "score"),
    "pipeline": ("BackendError", "EmptyBackend", "HttpBackend", "ModelBackend",
                 "OracleBackend", "PermanentBackendError", "PipelineConfig", "PRESETS",
                 "TrainingPair", "annotate_corpus", "annotate_document",
                 "annotate_documents", "build_prompt", "export_training_pairs"),
    "reindex": ("IdAllocator", "IdMap", "globalize", "localize"),
    "synth": ("SynthConfig", "perturb", "random_corpus", "random_document"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """An exported name, imported from its module on first use and kept here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
