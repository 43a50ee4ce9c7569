"""Snort rule parsing, correlation modeling, synthesis, clustering, evaluation.

The pipeline: :mod:`ruleforge.parser` turns rule text into structured records
and back, :mod:`ruleforge.encoding` maps rules onto a fixed categorical
vocabulary, :mod:`ruleforge.bayes` fits a smoothed pairwise-conditional model
over the encoded corpus, :mod:`ruleforge.abduction` proposes and enumerates
new rules from a seed, :mod:`ruleforge.clustering` groups similar rules by a
weighted edit distance, and :mod:`ruleforge.evaluation` cross-validates the
model against simple baselines. :mod:`ruleforge.cli` exposes all of it as the
``ruleforge`` command.
"""

__version__ = "0.1.0"

from .errors import RuleforgeError
from .parser import (
    HEADER_ATTRIBUTES,
    IDENTITY_KEYS,
    VALUE_JOIN,
    InvalidOptionValue,
    MalformedHeader,
    MissingSid,
    ParseError,
    ParsedRule,
    RuleHeader,
    RuleOption,
    UnterminatedOption,
    find_rule,
    parse_rule,
    parse_ruleset,
    serialize_rule,
)
from .encoding import (
    CLUSTER_ATTRIBUTE,
    UNK,
    AttributeVocabulary,
    EmptyCorpus,
    ExclusionList,
    MissingAssignment,
    UnknownAttribute,
    attach_cluster_feature,
    build_vocabulary,
    encode_corpus,
    encode_rule,
)
from .bayes import (
    CountTable,
    EmptyDataset,
    PosteriorDistribution,
    SmoothedModel,
    conditional_probability,
    fit,
    predict_above_threshold,
    predict_distribution,
    predict_mle,
    predict_topk,
)
from .clustering import (
    ClusterAssignment,
    DistanceMatrix,
    DistanceParams,
    InvalidCut,
    agglomerate,
    build_distance_matrix,
    key_distance,
    levenshtein,
    rule_distance,
)
from .abduction import (
    CandidateGraph,
    CombinationOverflow,
    EnumerationResult,
    GeneratedRule,
    SeedObservation,
    Strategy,
    abduce_antecedents,
    build_candidate_graph,
    enumerate_rules,
    materialize_snort_rules,
)
from .evaluation import (
    CLASSIFIER_BAYES,
    CLASSIFIER_BAYES_CLUSTER,
    CLASSIFIER_MAX_FREQUENCY,
    CLASSIFIER_RANDOM,
    AttributeAccuracyReport,
    InsufficientData,
    SplitSpec,
    ThresholdSweepResult,
    baseline_max_frequency,
    baseline_random,
    loco_evaluate,
    make_folds,
    threshold_sweep,
    value_frequencies,
)

__all__ = [
    "__version__",
    "RuleforgeError",
    # parser
    "HEADER_ATTRIBUTES",
    "IDENTITY_KEYS",
    "VALUE_JOIN",
    "InvalidOptionValue",
    "MalformedHeader",
    "MissingSid",
    "ParseError",
    "ParsedRule",
    "RuleHeader",
    "RuleOption",
    "UnterminatedOption",
    "find_rule",
    "parse_rule",
    "parse_ruleset",
    "serialize_rule",
    # encoding
    "CLUSTER_ATTRIBUTE",
    "UNK",
    "AttributeVocabulary",
    "EmptyCorpus",
    "ExclusionList",
    "MissingAssignment",
    "UnknownAttribute",
    "attach_cluster_feature",
    "build_vocabulary",
    "encode_corpus",
    "encode_rule",
    # bayes
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
    # clustering
    "ClusterAssignment",
    "DistanceMatrix",
    "DistanceParams",
    "InvalidCut",
    "agglomerate",
    "build_distance_matrix",
    "key_distance",
    "levenshtein",
    "rule_distance",
    # abduction
    "CandidateGraph",
    "CombinationOverflow",
    "EnumerationResult",
    "GeneratedRule",
    "SeedObservation",
    "Strategy",
    "abduce_antecedents",
    "build_candidate_graph",
    "enumerate_rules",
    "materialize_snort_rules",
    # evaluation
    "CLASSIFIER_BAYES",
    "CLASSIFIER_BAYES_CLUSTER",
    "CLASSIFIER_MAX_FREQUENCY",
    "CLASSIFIER_RANDOM",
    "AttributeAccuracyReport",
    "InsufficientData",
    "SplitSpec",
    "ThresholdSweepResult",
    "baseline_max_frequency",
    "baseline_random",
    "loco_evaluate",
    "make_folds",
    "threshold_sweep",
    "value_frequencies",
]
