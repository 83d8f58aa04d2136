"""Rank-based evaluation of MT quality metrics against post-editing effort."""

from .corpus import (
    Corpus,
    CorpusError,
    PESession,
    Segment,
    TokenList,
    ValidationWarning,
    load_corpus,
    mt_char_count,
    tokenize,
    validate_corpus,
)
from .rankeval import (
    Polarity,
    effort_oriented,
    rank_by,
    satra,
    spearman,
    tail_overlap,
)
from .stats import (
    KsResult,
    WilliamsResult,
    cluster_annotators,
    ks_two_sample,
    regularized_incomplete_beta,
    student_t_sf,
    weighted_mean_std,
    williams_test,
)
from .taskmetrics import SegmentScores, all_view, keys_per_char, petpw, score_segment
from .textmetrics import (
    MeteorResult,
    TerResult,
    bleu,
    meteor_lite,
    ter,
    word_edit_distance,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusError",
    "KsResult",
    "MeteorResult",
    "PESession",
    "Polarity",
    "Segment",
    "SegmentScores",
    "TerResult",
    "TokenList",
    "ValidationWarning",
    "WilliamsResult",
    "all_view",
    "bleu",
    "cluster_annotators",
    "effort_oriented",
    "keys_per_char",
    "ks_two_sample",
    "load_corpus",
    "meteor_lite",
    "mt_char_count",
    "petpw",
    "rank_by",
    "regularized_incomplete_beta",
    "satra",
    "score_segment",
    "spearman",
    "student_t_sf",
    "tail_overlap",
    "ter",
    "tokenize",
    "validate_corpus",
    "weighted_mean_std",
    "williams_test",
    "word_edit_distance",
]
