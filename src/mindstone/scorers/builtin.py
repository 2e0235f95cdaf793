"""Builtin lexical ranker and heuristic span reader.

The ranker is a logistic-loss linear model over six cheap lexical features
(feature_spec_version 1); it exercises the same training pipeline a neural
ranker would attach to. The reader scores every token window up to 30
tokens by idf-weighted question-term overlap (in-window, plus half-weight
overlap in a +/-15-token context) minus a mild length penalty.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .. import _kernels
from ..corpus import Paragraph, load_json_object, token_spans, tokenize
from ..index import InvertedIndex
from . import truncate_to_tokens, within_token_limit

FEATURE_SPEC_VERSION = 1
FEATURE_NAMES = [
    "bm25", "overlap_count", "idf_overlap", "question_coverage",
    "log_length", "title_overlap",
]

# BuiltinReader's span scoring (see its docstring).
MAX_SPAN_TOKENS = 30
CTX_RADIUS = 15
CTX_WEIGHT = 0.5
LENGTH_PENALTY = 0.3
IDF_FLOOR = 2.0


def _first_line_title(text: str) -> str:
    # full_text is "<title>\n<body>" when the article has a title.
    head, sep, _ = text.partition("\n")
    return head if sep else ""


def extract_features(question: str, text: str, index: InvertedIndex) -> np.ndarray:
    """Feature vector for one (question, paragraph-text) pair."""
    q_counts = Counter(tokenize(question, index.stopwords))
    t_terms = tokenize(text, index.stopwords)
    t_counts = Counter(t_terms)
    doc_len = len(t_terms)
    k1, b = index.params.k1, index.params.b
    avg = index.avg_doc_len
    norm = k1 * (1.0 - b + b * (doc_len / avg if avg > 0 else 0.0))

    bm25 = 0.0
    idf_overlap = 0.0
    overlap = 0
    for term in sorted(q_counts):
        tf = t_counts.get(term, 0)
        if tf == 0:
            continue
        idf = index.idf(term)
        bm25 += q_counts[term] * idf * (tf * (k1 + 1.0)) / (tf + norm)
        idf_overlap += idf
        overlap += 1
    coverage = overlap / len(q_counts) if q_counts else 0.0
    title_terms = set(tokenize(_first_line_title(text), index.stopwords))
    title_overlap = sum(1 for t in q_counts if t in title_terms)
    return np.array([bm25, float(overlap), idf_overlap, coverage,
                     math.log1p(doc_len), float(title_overlap)])


@dataclass(frozen=True)
class BuiltinRankerModel:
    feature_weights: tuple[float, ...]
    bias: float
    feature_spec_version: int = FEATURE_SPEC_VERSION

    def __post_init__(self):
        values = list(self.feature_weights) + [self.bias]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("model parameters must be finite")

    @classmethod
    def zeros(cls) -> "BuiltinRankerModel":
        return cls(feature_weights=(0.0,) * len(FEATURE_NAMES), bias=0.0)

    def save(self, path: str | Path):
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "BuiltinRankerModel":
        """The model saved at ``path``; else a ValueError naming the file."""
        rec = load_json_object(path)
        try:
            return cls(feature_weights=tuple(rec["feature_weights"]),
                       bias=rec["bias"],
                       feature_spec_version=rec["feature_spec_version"])
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


class BuiltinRanker:
    """Scores (question, text) pairs with a linear model. The model is
    immutable and the memo only ever stores values that depend on the
    paragraph alone, so concurrent scoring is safe."""

    def __init__(self, model: BuiltinRankerModel, index: InvertedIndex):
        if len(model.feature_weights) != len(FEATURE_NAMES):
            raise ValueError("model weight count does not match feature spec")
        self.model = model
        self.index = index
        self._w = np.array(model.feature_weights)
        # Paragraph -> (index ordinal, or -1 when its text is not the
        # indexed text; title terms), filled on first use.
        self._memo: dict[Paragraph, tuple[int, frozenset[str]]] = {}

    def rank_text(self, question: str, text: str) -> float:
        x = extract_features(question, text, self.index)
        return float(x @ self._w + self.model.bias)

    def rank_pool(self, question: str, paragraphs: Sequence[Paragraph],
                  max_tokens: int) -> np.ndarray:
        """Scores of a candidate pool, equal bit for bit to ``rank_text`` on
        each paragraph truncated to ``max_tokens``.

        A text within the token limit (:func:`within_token_limit`) is never
        truncated; when it is also the indexed text of its paragraph, its
        features come from the index's postings instead of from tokenizing
        it.
        """
        x = np.empty((len(paragraphs), len(FEATURE_NAMES)))
        rows, ordinals, titles = [], [], []
        for i, para in enumerate(paragraphs):
            text = para.full_text
            if within_token_limit(text, max_tokens):
                ordinal, title_terms = self._indexed(para, text)
                if ordinal >= 0:
                    rows.append(i)
                    ordinals.append(ordinal)
                    titles.append(title_terms)
                    continue
            x[i] = extract_features(
                question, truncate_to_tokens(text, max_tokens), self.index)
        if rows:
            x[rows] = self._indexed_features(question, np.array(ordinals),
                                             titles)
        # One 6-element dot per row: a whole-matrix product may sum in
        # another order and differ from rank_text in the last bit.
        bias = self.model.bias
        return np.array([float(row @ self._w) + bias for row in x])

    def _indexed(self, para: Paragraph,
                 text: str) -> tuple[int, frozenset[str]]:
        memo = self._memo.get(para)
        if memo is None:
            index = self.index
            ordinal = -1
            if para.para_id in index:
                candidate = index.ordinal(para.para_id)
                if index.matches_text(candidate, text):
                    ordinal = candidate
            title_terms = frozenset(tokenize(_first_line_title(text),
                                             index.stopwords))
            memo = self._memo[para] = (ordinal, title_terms)
        return memo

    def _indexed_features(self, question: str, ordinals: np.ndarray,
                          titles: list[frozenset[str]]) -> np.ndarray:
        """extract_features for indexed texts, as array ops over the
        candidates in the same per-term order of float operations."""
        index = self.index
        q_counts = Counter(tokenize(question, index.stopwords))
        k1 = index.params.k1
        norm = index.bm25_norms(ordinals)
        bm25 = np.zeros(len(ordinals))
        idf_overlap = np.zeros(len(ordinals))
        overlap = np.zeros(len(ordinals))
        for term in sorted(q_counts):
            tf = index.term_frequencies(term, ordinals)
            hit = tf > 0
            if not hit.any():
                continue
            tf = tf[hit]
            idf = index.idf(term)
            bm25[hit] += (q_counts[term] * idf * (tf * (k1 + 1.0))
                          / (tf + norm[hit]))
            idf_overlap[hit] += idf
            overlap[hit] += 1.0
        coverage = overlap / max(len(q_counts), 1)
        log_length = [math.log1p(n) for n in
                      index.doc_lengths(ordinals).tolist()]
        q_terms = set(q_counts)
        title_overlap = [float(len(q_terms & t)) for t in titles]
        return np.column_stack([bm25, overlap, idf_overlap, coverage,
                                log_length, title_overlap])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 0.3
    l2: float = 1e-4
    holdout_fraction: float = 0.2
    seed: int = 0


@dataclass(frozen=True)
class TrainReport:
    n_train: int
    n_holdout: int
    holdout_accuracy: float


def train_builtin_ranker(dataset, index: InvertedIndex,
                         config: TrainConfig = TrainConfig(),
                         init: BuiltinRankerModel | None = None,
                         ) -> tuple[BuiltinRankerModel, TrainReport]:
    """Fit the linear ranker by full-batch gradient descent on logistic loss.

    Deterministic given the dataset order and seed. Raises ValueError on an
    empty or single-label dataset. ``init`` warm-starts from an existing
    model (used for sequential training phases).
    """
    examples = list(dataset)
    if not examples:
        raise ValueError("empty training dataset")
    labels = np.array([ex.label for ex in examples], dtype=np.float64)
    if labels.min() == labels.max():
        raise ValueError("training dataset contains a single label")

    x = np.stack([extract_features(ex.question, ex.text, index)
                  for ex in examples])
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(examples))
    n_holdout = max(1, int(round(config.holdout_fraction * len(examples))))
    if n_holdout >= len(examples):
        n_holdout = len(examples) - 1
    holdout_idx, train_idx = perm[:n_holdout], perm[n_holdout:]
    # A single-label training split cannot be fit; fall back to training on
    # everything and scoring holdout in-sample.
    if labels[train_idx].min() == labels[train_idx].max():
        train_idx = perm

    x_tr, y_tr = x[train_idx], labels[train_idx]
    mean = x_tr.mean(axis=0)
    std = x_tr.std(axis=0)
    # A constant column can have a rounding-error std (~1e-15), which would
    # blow its weight up; leave such columns unscaled.
    std[x_tr.max(axis=0) == x_tr.min(axis=0)] = 1.0
    z_tr = (x_tr - mean) / std

    if init is not None:
        w = np.array(init.feature_weights) * std
        bias = init.bias + float(np.array(init.feature_weights) @ mean)
    else:
        w = np.zeros(x.shape[1])
        bias = 0.0
    for _ in range(config.epochs):
        logits = z_tr @ w + bias
        p = 1.0 / (1.0 + np.exp(-logits))
        err = p - y_tr
        grad_w = z_tr.T @ err / len(y_tr) + config.l2 * w
        grad_b = err.mean()
        w -= config.learning_rate * grad_w
        bias -= config.learning_rate * grad_b

    # Fold the standardization back into raw-feature space.
    w_raw = w / std
    b_raw = bias - float((w / std) @ mean)
    model = BuiltinRankerModel(feature_weights=tuple(float(v) for v in w_raw),
                               bias=b_raw)

    z_ho = (x[holdout_idx] - mean) / std
    pred = (z_ho @ w + bias) > 0.0
    accuracy = float((pred == (labels[holdout_idx] > 0.5)).mean())
    report = TrainReport(n_train=len(train_idx), n_holdout=len(holdout_idx),
                         holdout_accuracy=accuracy)
    return model, report


def train_ranker_phases(datasets, index: InvertedIndex,
                        config: TrainConfig = TrainConfig(),
                        mode: str = "sequential",
                        ) -> tuple[BuiltinRankerModel, list[TrainReport]]:
    """Train over several datasets: ``sequential`` continues the same model
    phase by phase; ``concat`` trains once on the concatenation."""
    datasets = [list(d) for d in datasets]
    if mode == "concat":
        merged = [ex for d in datasets for ex in d]
        model, report = train_builtin_ranker(merged, index, config)
        return model, [report]
    if mode != "sequential":
        raise ValueError(f"unknown training mode: {mode!r}")
    model = None
    reports = []
    for dataset in datasets:
        model, report = train_builtin_ranker(dataset, index, config,
                                             init=model)
        reports.append(report)
    return model, reports


class BuiltinReader:
    """Deterministic heuristic span extractor honoring the reader contract
    (always returns at least one span for non-empty text).

    Candidate spans are runs of informative non-question tokens (idf above
    a commonness floor, each distinct token counted once), scored together
    with idf-weighted question-term overlap in a +/-15-token context window
    and a length penalty. When the text has no informative non-question
    token at all, spans fall back to maximal in-window question overlap,
    which returns the whole text when it equals the answer.
    """

    def __init__(self, index: InvertedIndex):
        self.index = index

    def _indexed_idf(self, token: str) -> float:
        # Unindexed tokens (stopwords, unseen words) carry no signal.
        return self.index.idf(token) if self.index.doc_freq(token) > 0 else 0.0

    def read_text(self, question: str, text: str,
                  k: int) -> list[tuple[int, int, float]]:
        spans = token_spans(text)
        if not spans:
            return [(0, len(text), 0.0)]
        q_terms = set(tokenize(question, self.index.stopwords))
        n = len(spans)
        q_idf = np.zeros(n)
        novelty = np.zeros(n)
        prev = np.full(n, -1, dtype=np.int64)
        last_seen: dict[str, int] = {}
        for i, (tok, _, _) in enumerate(spans):
            if tok in q_terms:
                q_idf[i] = self._indexed_idf(tok)
            else:
                novelty[i] = max(self._indexed_idf(tok) - IDF_FLOOR, 0.0)
            if tok in last_seen:
                prev[i] = last_seen[tok]
            last_seen[tok] = i
        win_w = novelty if novelty.any() else q_idf

        scores = np.empty((n, MAX_SPAN_TOKENS))
        _kernels.span_score_matrix(win_w, q_idf, prev, MAX_SPAN_TOKENS,
                                   CTX_RADIUS, CTX_WEIGHT, LENGTH_PENALTY,
                                   scores)
        starts, lens = np.nonzero(np.isfinite(scores))
        order = np.lexsort((lens, starts, -scores[starts, lens]))[:k]
        return [(spans[starts[i]][1],
                 spans[starts[i] + lens[i]][2],
                 float(scores[starts[i], lens[i]]))
                for i in order]
