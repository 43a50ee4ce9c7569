"""Snort rule parsing, correlation modeling, synthesis, clustering, evaluation.

The pipeline: :mod:`ruleforge.parser` turns rule text into structured records
and back, :mod:`ruleforge.encoding` maps rules onto a fixed categorical
vocabulary, :mod:`ruleforge.bayes` fits a smoothed pairwise-conditional model
over the encoded corpus, :mod:`ruleforge.abduction` proposes and enumerates
new rules from a seed and sweeps thresholds over it, :mod:`ruleforge.clustering`
groups similar rules by a weighted edit distance, and :mod:`ruleforge.evaluation`
cross-validates the model against simple baselines. :mod:`ruleforge.cli`
exposes all of it as the ``ruleforge`` command.

Importing the package loads none of those modules. Each public name in
``__all__`` loads its module on first use (``from ruleforge import fit`` or
``ruleforge.fit``), and ``ruleforge.<module>`` is bound only once that module
has been imported.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_PUBLIC = {
    "errors": ("RuleforgeError",),
    "parser": (
        "HEADER_ATTRIBUTES",
        "IDENTITY_KEYS",
        "VALUE_JOIN",
        "InvalidOptionValue",
        "MalformedHeader",
        "ParseError",
        "ParsedRule",
        "RuleHeader",
        "RuleOption",
        "UnterminatedOption",
        "find_rule",
        "parse_rule",
        "parse_ruleset",
        "serialize_rule",
    ),
    "encoding": (
        "CLUSTER_ATTRIBUTE",
        "UNK",
        "AttributeVocabulary",
        "EmptyCorpus",
        "ExclusionList",
        "UnknownAttribute",
        "attach_cluster_feature",
        "build_vocabulary",
        "encode_corpus",
        "encode_rule",
    ),
    "bayes": (
        "CountTable",
        "EmptyDataset",
        "PosteriorDistribution",
        "SmoothedModel",
        "conditional_probability",
        "fit",
        "predict_above_threshold",
        "predict_distribution",
        "predict_mle",
        "predict_topk",
    ),
    "clustering": (
        "ClusterAssignment",
        "DistanceMatrix",
        "DistanceParams",
        "InvalidCut",
        "agglomerate",
        "build_distance_matrix",
        "key_distance",
        "levenshtein",
        "rule_distance",
    ),
    "abduction": (
        "CandidateGraph",
        "CombinationOverflow",
        "EnumerationResult",
        "GeneratedRule",
        "SeedObservation",
        "Strategy",
        "ThresholdSweepResult",
        "abduce_antecedents",
        "build_candidate_graph",
        "enumerate_rules",
        "materialize_snort_rules",
        "threshold_sweep",
    ),
    "evaluation": (
        "CLASSIFIER_BAYES",
        "CLASSIFIER_BAYES_CLUSTER",
        "CLASSIFIER_MAX_FREQUENCY",
        "CLASSIFIER_RANDOM",
        "AttributeAccuracyReport",
        "InsufficientData",
        "SplitSpec",
        "baseline_max_frequency",
        "baseline_random",
        "loco_evaluate",
        "make_folds",
        "value_frequencies",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """Import the module that defines a public name and keep the name here (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
