"""Score normalization, weighted-average fusion, and weight tuning.

Per-query, per-stage scores are shifted into (-inf, 1] (s -> s - max + 1),
which absorbs any constant offset a stage applies to its raw scores: such
an offset leaves the answer order unchanged, up to floating-point rounding
(adding it can round two distinct scores to one, making a tie). The fused
score is a weighted average of the three normalized scores.

Weights are tuned by exhaustive simplex grid search maximizing top-1 exact
match on a dev set. Only the top-1 answer counts, and that is the first
candidate, in (para_id, start_char) order, with the largest fused score. So
the search fuses all grid points for a question in one array broadcast and
takes each point's argmax, instead of sorting and deduplicating the answer
list once per grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import write_csv
from .eval import GoldRecord, exact_match, log_failed_questions


@dataclass(frozen=True)
class FusionWeights:
    w_retriever: float
    w_ranker: float
    w_reader: float

    def __post_init__(self):
        # NaN passes both comparisons below.
        if not all(map(math.isfinite, self.as_tuple())):
            raise ValueError(f"fusion weights must be finite, got "
                             f"{self.as_tuple()}")
        if min(self.w_retriever, self.w_ranker, self.w_reader) < 0.0:
            raise ValueError("fusion weights must be non-negative")
        total = self.w_retriever + self.w_ranker + self.w_reader
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fusion weights must sum to 1, got {total}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_retriever, self.w_ranker, self.w_reader)


def normalize_scores(scores: Sequence[float]) -> list[float]:
    """Shift scores so the maximum is exactly 1; order-preserving. Scores
    too far apart to shift in float64 raise ValueError."""
    if not scores:
        return []
    top = max(scores)
    shifted = [s - top + 1.0 for s in scores]
    if not math.isfinite(min(shifted)):
        raise ValueError(f"scores {min(scores)!r} and {top!r} are too far "
                         f"apart to normalize")
    return shifted


def fuse(normalized: tuple[float, float, float], weights: FusionWeights) -> float:
    n_ret, n_rank, n_read = normalized
    return (weights.w_retriever * n_ret + weights.w_ranker * n_rank
            + weights.w_reader * n_read)


def simplex_grid(grid_step: float) -> list[FusionWeights]:
    """All weight triples on the simplex lattice with the given resolution."""
    if not 0.0 < grid_step <= 0.5:
        raise ValueError(f"grid_step must be in (0, 0.5], got {grid_step}")
    steps = round(1.0 / grid_step)
    if abs(steps - 1.0 / grid_step) > 1e-9:
        raise ValueError(f"grid_step must divide 1, got {grid_step}")
    grid = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            k = steps - i - j
            grid.append(FusionWeights(i / steps, j / steps, k / steps))
    return grid


@dataclass(frozen=True)
class GridPoint:
    weights: FusionWeights
    em: float


def tune_weights(dev_records: Sequence[GoldRecord], pipeline,
                 grid_step: float = 0.05,
                 ) -> tuple[FusionWeights, list[GridPoint]]:
    """Exhaustive grid search for the EM-maximizing fusion weights.

    Per-stage scores are collected once per question (the expensive part),
    by one ``pipeline.answer_batch`` call; a failed question is logged and,
    having no candidates, answers "". The answer list ranks candidates by
    fused score descending, ties by para_id then start_char, then
    collection order (a stable sort), and deduplication never drops its
    first entry. So a point's top-1 answer is the first maximum of the
    fused scores once the candidates are stably sorted by (para_id,
    start_char). Per question, the fused scores of all
    grid points are one (points x candidates) array, built with the
    operations of :func:`fuse` in its order, and its row-wise argmax picks
    every point's top-1 answer exactly, as long as no fused score is NaN
    (the ranker and reader stages reject non-finite scores). Ties prefer
    larger w_reader, then larger w_ranker.
    """
    if not dev_records:
        raise ValueError("empty dev set")
    grid = simplex_grid(grid_step)
    w = np.array([weights.as_tuple() for weights in grid])
    hits = np.zeros(len(grid), dtype=np.int64)
    results = pipeline.answer_batch([r.question for r in dev_records])
    log_failed_questions([r.qid for r in dev_records], results)
    for record, result in zip(dev_records, results):
        candidates = sorted(result.candidates,
                            key=lambda c: (c.para_id, c.start_char))
        if not candidates:
            hits += exact_match("", record.gold_answers)
            continue
        n = np.array([(c.n_retriever, c.n_ranker, c.n_reader)
                      for c in candidates])
        em = np.array([exact_match(c.text, record.gold_answers)
                       for c in candidates])
        fused = w[:, 0:1] * n[:, 0] + w[:, 1:2] * n[:, 1] + w[:, 2:3] * n[:, 2]
        hits += em[fused.argmax(axis=1)]

    report = [GridPoint(weights, int(h) / len(dev_records))
              for weights, h in zip(grid, hits)]
    best = max(report, key=lambda p: (p.em, p.weights.w_reader,
                                      p.weights.w_ranker))
    return best.weights, report


def write_tuning_csv(report: Sequence[GridPoint], path: str | Path):
    write_csv(["w_retriever", "w_ranker", "w_reader", "em"],
              ([*map(repr, point.weights.as_tuple()), repr(point.em)]
               for point in report), path)
