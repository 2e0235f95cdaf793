"""Ranker and reader stages: builtin lexical scorers, ranker-dataset
builders, and the subprocess wire protocol for external scorers.

A ranker exposes ``rank_text(question, text) -> float`` (a relevance logit,
> 0 meaning "contains an answer"), and may also expose
``rank_pool(question, paragraphs, max_tokens) -> ndarray`` that scores a
whole candidate pool at once, equal to ``rank_text`` on each paragraph
truncated to ``max_tokens``. A reader exposes
``read_text(question, text, k) -> [(start, end, score), ...]`` with
character offsets into the provided text. The module-level :func:`rank`
(one call per candidate pool) and :func:`read` (one call per paragraph)
apply the truncation contract, so scorer output never depends on content
beyond the truncation limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..corpus import Paragraph, segment, token_spans
from ..errors import StageError


@dataclass(frozen=True)
class TruncationLimits:
    ranker_para_tokens: int = 448
    reader_total_tokens: int = 384

    def __post_init__(self):
        if self.ranker_para_tokens <= 0 or self.reader_total_tokens <= 0:
            raise ValueError("truncation limits must be positive")


@dataclass(frozen=True)
class RankExample:
    """One ranker training example; label 1 means the paragraph contains
    an answer to the question."""

    question: str
    para_id: str
    text: str
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class AnswerSpan:
    para_id: str
    start_char: int
    end_char: int
    text: str
    s_reader: float


def within_token_limit(text: str, max_tokens: int) -> bool:
    """True when ``text`` is too short to hold more than ``max_tokens``
    tokens: tokens are separated by at least one other code point, so a
    text of c code points holds at most ceil(c / 2) of them."""
    return len(text) <= 2 * max_tokens


def truncate_to_tokens(text: str, max_tokens: int) -> str:
    """Cut text after its ``max_tokens``-th token (raw alphanumeric runs,
    stopwords included). Text at or under the limit is returned unchanged."""
    if max_tokens <= 0:
        return ""
    if within_token_limit(text, max_tokens):
        return text
    spans = token_spans(text)
    if len(spans) <= max_tokens:
        return text
    return text[:spans[max_tokens - 1][2]]


def rank(scorer, question: str, paragraphs: Sequence[Paragraph],
         limits: TruncationLimits = TruncationLimits()) -> np.ndarray:
    """Ranker stage for a candidate pool: one score per paragraph, in order.
    Each paragraph is truncated to ``limits.ranker_para_tokens``, then
    scored by the scorer's ``rank_pool`` when it has one, else pair by pair
    with ``rank_text``."""
    max_tokens = limits.ranker_para_tokens
    if hasattr(scorer, "rank_pool"):
        return scorer.rank_pool(question, paragraphs, max_tokens)
    return np.array([
        float(scorer.rank_text(question,
                               truncate_to_tokens(p.full_text, max_tokens)))
        for p in paragraphs], dtype=np.float64)


def read(scorer, question: str, paragraph: Paragraph, k: int,
         limits: TruncationLimits = TruncationLimits()) -> list[AnswerSpan]:
    """Reader stage for one paragraph: truncate question+paragraph to the
    combined token budget (paragraph first), then extract up to k spans."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not paragraph.full_text:
        raise ValueError(f"paragraph {paragraph.para_id} is empty")
    budget = limits.reader_total_tokens
    q_count = len(segment(question))
    if q_count >= budget:
        question = truncate_to_tokens(question, budget - 1)
        q_count = budget - 1
    text = truncate_to_tokens(paragraph.full_text, max(1, budget - q_count))
    raw = scorer.read_text(question, text, k)
    if not raw:
        raise StageError("reader", f"scorer returned no spans for "
                                   f"{paragraph.para_id}")
    spans = []
    for start, end, score in raw[:k]:
        if not 0 <= start < end <= len(text):
            raise StageError("reader", f"span [{start}, {end}) outside "
                                       f"truncated text of {paragraph.para_id}")
        spans.append(AnswerSpan(para_id=paragraph.para_id, start_char=start,
                                end_char=end, text=text[start:end],
                                s_reader=float(score)))
    spans.sort(key=lambda s: (-s.s_reader, s.start_char, s.end_char))
    return spans


from .builtin import (  # noqa: E402
    BuiltinRanker, BuiltinRankerModel, BuiltinReader, TrainConfig,
    TrainReport, train_builtin_ranker, train_ranker_phases,
)
from .datasets import (  # noqa: E402
    build_dataset_aug1, build_dataset_aug2, build_dataset_finetune,
    read_rank_examples, write_rank_examples,
)
from .external import ExternalScorer  # noqa: E402

__all__ = [
    "AnswerSpan", "BuiltinRanker", "BuiltinRankerModel", "BuiltinReader",
    "ExternalScorer", "RankExample", "TrainConfig", "TrainReport",
    "TruncationLimits", "build_dataset_aug1", "build_dataset_aug2",
    "build_dataset_finetune", "rank", "read", "read_rank_examples",
    "train_builtin_ranker", "train_ranker_phases", "truncate_to_tokens",
    "write_rank_examples",
]
