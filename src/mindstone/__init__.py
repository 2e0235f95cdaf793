"""Open-domain question answering over a paragraph corpus: BM25 retrieval,
relevance ranking, ranker-gated query expansion, and span reading, fused
into a single sorted answer list."""

__version__ = "0.1.0"

from .corpus import Article, Paragraph, split_article, tokenize
from .errors import MindstoneError, StageError
from .expansion import ExpansionParams, expand_query, question_vector
from .fusion import FusionWeights, fuse, normalize_scores, tune_weights
from .index import Bm25Params, InvertedIndex, QueryVector
from .pipeline import Pipeline, PipelineConfig, RankedAnswer

__all__ = [
    "Article", "Bm25Params", "ExpansionParams", "FusionWeights",
    "InvertedIndex", "MindstoneError", "Paragraph", "Pipeline",
    "PipelineConfig", "QueryVector", "RankedAnswer", "StageError",
    "expand_query", "fuse", "normalize_scores", "question_vector",
    "split_article", "tokenize", "tune_weights", "__version__",
]
