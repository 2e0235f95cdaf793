"""Ranker and reader stages: builtin lexical scorers, ranker-dataset
builders, and the subprocess wire protocol for external scorers.

The scorer contract is pool-only. A ranker exposes
``rank_pool(question, para_ids, texts) -> scores``, one relevance logit
per text (> 0 meaning "contains an answer"). A reader exposes
``read_pool(question, para_ids, texts, k) -> [[(start, end, score), ...],
...]``, one span list per text, with character offsets into that text.
The module-level :func:`rank` and :func:`read` call their scorer once per
question. They are the only places that apply the truncation contract, so
scorer output never depends on content beyond the truncation limits, and
they check the reply: one score or one span list per paragraph, spans
inside their text, and no NaN or infinite score, which fusion cannot
order.

Importing this package loads no numpy, so a scorer subprocess such as
``echo_scorer`` starts fast. The names of ``builtin``, ``datasets`` and
``external`` in ``__all__`` load their submodule on first access.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..corpus import Paragraph, segment, token_spans
from ..errors import StageError

if TYPE_CHECKING:
    import numpy as np


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
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class AnswerSpan:
    start_char: int
    end_char: int
    text: str
    s_reader: float


def truncate_to_tokens(text: str, max_tokens: int) -> str:
    """Cut text after its ``max_tokens``-th token (raw alphanumeric runs,
    stopwords included). Text at or under the limit is returned unchanged."""
    if max_tokens <= 0:
        return ""
    # Tokens are separated by at least one other code point, so a text of
    # c code points holds at most ceil(c / 2) of them.
    if len(text) <= 2 * max_tokens:
        return text
    spans = token_spans(text)
    if len(spans) <= max_tokens:
        return text
    return text[:spans[max_tokens - 1][2]]


def rank(scorer, question: str, paragraphs: Sequence[Paragraph],
         limits: TruncationLimits = TruncationLimits()) -> np.ndarray:
    """Ranker stage for a candidate pool: one float64 score per paragraph,
    in order. Each paragraph is truncated to ``limits.ranker_para_tokens``,
    then the pool is scored by one ``rank_pool`` call (none for an empty
    pool). A scorer that raises, or scores of another shape than one per
    paragraph, or not finite, are a ``StageError``."""
    import numpy as np
    if not paragraphs:
        return np.zeros(0)
    texts = [truncate_to_tokens(p.full_text, limits.ranker_para_tokens)
             for p in paragraphs]
    try:
        scores = np.asarray(scorer.rank_pool(
            question, [p.para_id for p in paragraphs], texts),
            dtype=np.float64)
    except StageError:
        raise
    except Exception as exc:
        raise StageError("rank", str(exc))
    if scores.shape != (len(paragraphs),):
        raise StageError("rank", f"ranker returned scores of shape "
                                 f"{scores.shape} for {len(paragraphs)} "
                                 "paragraphs")
    finite = np.isfinite(scores)
    if not finite.all():
        i = int(np.argmin(finite))
        raise StageError("rank", f"non-finite score {float(scores[i])} "
                                 f"for {paragraphs[i].para_id}")
    return scores


def read(scorer, question: str, paragraphs: Sequence[Paragraph], k: int,
         limits: TruncationLimits = TruncationLimits()
         ) -> list[list[AnswerSpan]]:
    """Reader stage for one question's read slice: up to k spans per
    paragraph, best first. The question is cut once to the combined token
    budget, each paragraph to the rest of it, and the slice is read by one
    ``read_pool`` call (none for an empty slice). A failure of that call
    is a ``StageError`` naming the paragraphs of the slice; a failure in
    one paragraph's reply, or an empty paragraph, names that paragraph."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not paragraphs:
        return []
    budget = limits.reader_total_tokens
    q_count = len(segment(question))
    if q_count >= budget:
        question = truncate_to_tokens(question, budget - 1)
        q_count = budget - 1
    room = max(1, budget - q_count)
    para_ids = [p.para_id for p in paragraphs]
    texts = [truncate_to_tokens(p.full_text, room) for p in paragraphs]
    if "" in texts:
        empty = para_ids[texts.index("")]
        raise StageError("read", f"{empty}: paragraph is empty")
    try:
        replies = list(scorer.read_pool(question, para_ids, texts, k))
    except StageError:
        raise
    except Exception as exc:
        raise StageError("read", f"{', '.join(para_ids)}: {exc}")
    if len(replies) != len(paragraphs):
        raise StageError("read", f"reader returned {len(replies)} span "
                                 f"lists for {len(paragraphs)} paragraphs")
    read_slice = []
    for para_id, text, raw in zip(para_ids, texts, replies):
        try:
            if not raw:
                raise ValueError("scorer returned no spans")
            spans = []
            for start, end, score in raw[:k]:
                if not 0 <= start < end <= len(text):
                    raise ValueError(f"span [{start}, {end}) outside the "
                                     "truncated text")
                score = float(score)
                if not math.isfinite(score):
                    raise ValueError(f"non-finite score {score}")
                spans.append(AnswerSpan(start, end, text[start:end], score))
        except Exception as exc:
            raise StageError("read", f"{para_id}: {exc}")
        spans.sort(key=lambda s: (-s.s_reader, s.start_char, s.end_char))
        read_slice.append(spans)
    return read_slice


_LAZY = {
    **dict.fromkeys(["BuiltinRanker", "BuiltinRankerModel", "BuiltinReader",
                     "TrainConfig", "TrainReport", "train_builtin_ranker",
                     "train_ranker_phases"], "builtin"),
    **dict.fromkeys(["build_dataset_aug1", "build_dataset_aug2",
                     "build_dataset_finetune"], "datasets"),
    "ExternalScorer": "external",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return getattr(module, name)


__all__ = [
    "AnswerSpan", "RankExample", "TruncationLimits", "rank", "read",
    "truncate_to_tokens", *_LAZY,
]
