"""Coreference annotation with plain-text LLM input/output.

The pieces, in data-flow order: ``conllu`` reads and writes CorefUD-style
CoNLL-U; ``formats`` turns documents into inline-tagged text and back;
``reindex`` keeps chain ids small inside a prompt window; ``pipeline`` runs
the windowed annotate loop and exports training pairs; ``align`` repairs
noisy model output against the original text; ``metrics`` scores chains and
reports corpus statistics; ``synth`` fabricates test data.
"""
from .align import Alignment, align_tokens, clean, edit_similarity
from .conllu import (Chain, ConlluError, Corpus, Document, Mention, Sentence,
                     Token, iter_conllu, parse_conllu, serialize_conllu, serialize_corpus)
from .diag import Diagnostic
from .formats import (AnnotatedText, Format, FormatError, TagEvent,
                      build_events, decode, encode, events_to_mentions, render)
from .metrics import (DensityStats, DistanceCdf, ScoreReport, antecedent_cdf,
                      conll_f1, density, score)
from .pipeline import (BackendError, EmptyBackend, HttpBackend, ModelBackend,
                       OracleBackend, PermanentBackendError, PipelineConfig,
                       PRESETS, TrainingPair, annotate_corpus, annotate_document,
                       annotate_documents, build_prompt, export_training_pairs)
from .reindex import IdAllocator, IdMap, globalize, localize
from .synth import SynthConfig, perturb, random_corpus, random_document

__version__ = "0.1.0"

__all__ = [
    "Alignment", "AnnotatedText", "BackendError", "Chain", "ConlluError",
    "Corpus", "DensityStats", "Diagnostic", "DistanceCdf", "Document",
    "EmptyBackend", "Format", "FormatError", "HttpBackend", "IdAllocator",
    "IdMap", "Mention", "ModelBackend", "OracleBackend", "PRESETS",
    "PermanentBackendError", "PipelineConfig", "ScoreReport", "Sentence",
    "SynthConfig", "TagEvent", "Token", "TrainingPair", "align_tokens",
    "annotate_corpus", "annotate_document", "annotate_documents", "antecedent_cdf",
    "build_events",
    "build_prompt", "clean", "conll_f1", "decode", "density",
    "edit_similarity", "encode", "events_to_mentions", "export_training_pairs",
    "globalize", "iter_conllu", "localize", "parse_conllu", "perturb",
    "random_corpus", "random_document", "render", "score", "serialize_conllu",
    "serialize_corpus", "__version__",
]
