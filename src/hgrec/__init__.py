"""Reviewer recommendation on a weighted hypergraph of review history."""

__version__ = "0.1.0"

from .config import HyperParams, RunConfig
from .corpus import ReviewCorpus, clean, parse_export
from .evaluation import RecommenderSpec, make_rounds, run_comparison
from .hypergraph import Hypergraph, build, path_similarity
from .recommender import HypergraphRecommender, Recommendation, TargetPR, recommend
from .stats import wilcoxon_signed_rank

__all__ = [
    "HyperParams",
    "Hypergraph",
    "HypergraphRecommender",
    "Recommendation",
    "RecommenderSpec",
    "ReviewCorpus",
    "RunConfig",
    "TargetPR",
    "__version__",
    "build",
    "clean",
    "make_rounds",
    "parse_export",
    "path_similarity",
    "recommend",
    "run_comparison",
    "wilcoxon_signed_rank",
]
