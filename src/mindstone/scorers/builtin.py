"""Builtin lexical ranker and heuristic span reader.

The ranker is a logistic-loss linear model over six cheap lexical features
(feature_spec_version 1); it exercises the same training pipeline a neural
ranker would attach to. Pools (``rank_pool``) and training
(``train_builtin_ranker``) compute features through one path,
:func:`feature_rows`, over candidates that one helper resolves,
:func:`_candidate`: an indexed paragraph whose text is the indexed text is
read from its postings, any other text from its own tokens. The ranker
scores texts as given; ``scorers.rank`` truncates them. A pool's scores
are one ``np.vecdot`` of its feature rows and the weights.

The reader scores every token window up to 30 tokens by idf-weighted
question-term overlap (in-window, plus half-weight overlap in a
+/-15-token context) minus a mild length penalty. It looks up idf and
question membership once per distinct token and gathers them back by
token id, and takes its top k windows by ``argmax``, ties to the earliest
start and then the shortest window.
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
from ..corpus import (_TOKEN_RE, ARRAY, INTEGER, NUMBER, json_field,
                      load_json_object, tokenize)
from ..index import InvertedIndex

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

# A text to score: (its index ordinal and None when it is the indexed text
# of a document, else -1 and its term counts; its title terms).
Candidate = tuple[int, Counter | None, frozenset[str]]
# para_id -> (the last text resolved under it, that text's candidate).
Memo = dict[str, tuple[str, Candidate]]
# A question and the candidates to score against it.
Pool = tuple[str, Sequence[Candidate]]


def _title_terms(text: str, stopwords: frozenset[str]) -> frozenset[str]:
    # full_text is "<title>\n<body>" when the article has a title.
    head, sep, _ = text.partition("\n")
    return frozenset(tokenize(head, stopwords) if sep else ())


def _candidate(index: InvertedIndex, memo: Memo, para_id: str,
               text: str) -> Candidate:
    """The candidate of ``text``, read from the index when it is the
    indexed text of ``para_id``. ``memo`` keeps it under ``para_id`` and
    returns it again while the text asked for is the same."""
    kept = memo.get(para_id)
    if kept is not None and kept[0] == text:
        return kept[1]
    title_terms = _title_terms(text, index.stopwords)
    if para_id in index and index.matches_text(
            ordinal := index.ordinal(para_id), text):
        found = ordinal, None, title_terms
    else:
        found = -1, Counter(tokenize(text, index.stopwords)), title_terms
    memo[para_id] = text, found
    return found


def _in_order(at_text: np.ndarray, indexed: np.ndarray,
              text_values: list) -> np.ndarray:
    """Indexed rows' values and text rows' values, in row order."""
    if not text_values:
        return indexed
    out = np.empty(len(at_text))
    out[~at_text], out[at_text] = indexed, text_values
    return out


def feature_rows(index: InvertedIndex, pools: Sequence[Pool]) -> np.ndarray:
    """Feature vectors of the candidates (see :func:`_candidate`) of
    ``pools``, (question, candidates) pairs, one row per candidate in pool
    order: an indexed document's tf and length come from the index, a
    text's from its term counts. The rows of each distinct question add
    its terms in sorted order, each as one array op over those rows, so a
    row is the same bit for bit whatever else is scored with it."""
    pools_of: dict[str, list[int]] = {}  # question -> its pools
    for i, (question, _) in enumerate(pools):
        pools_of.setdefault(question, []).append(i)
    parts: list = [None] * len(pools)  # each pool's rows
    k1 = index.params.k1
    for question, at_pools in pools_of.items():
        at = [c for i in at_pools for c in pools[i][1]]
        q_counts = Counter(tokenize(question, index.stopwords))
        ordinals = np.array([c[0] for c in at], dtype=np.int64)
        at_text = ordinals < 0
        texts = [c[1] for c in at if c[0] < 0] if at_text.any() else []
        if texts:
            ordinals = ordinals[~at_text]
        lengths = _in_order(at_text, index.doc_lengths(ordinals),
                            [c.total() for c in texts])
        norm = index.bm25_norms(lengths)
        bm25, idf_overlap, overlap = np.zeros((3, len(at)))
        for term in sorted(q_counts):
            tf = _in_order(at_text, index.term_frequencies(term, ordinals),
                           [c[term] for c in texts])
            hit = tf > 0
            if not hit.any():
                continue
            idf = index.idf(term)
            # Rows without the term add +0.0, which leaves their sums (all
            # >= +0.0) unchanged, as skipping them would.
            bm25 += np.divide(q_counts[term] * idf * (tf * (k1 + 1.0)),
                              tf + norm, out=np.zeros(len(tf)), where=hit)
            idf_overlap += hit * idf
            overlap += hit
        q_terms = set(q_counts)
        rows = np.column_stack([
            bm25, overlap, idf_overlap, overlap / max(len(q_counts), 1),
            [math.log1p(n) for n in lengths.tolist()],
            [float(len(q_terms & c[2])) for c in at]])
        start = 0
        for i in at_pools:
            parts[i] = rows[start:start + len(pools[i][1])]
            start += len(pools[i][1])
    # The empty block keeps the shape when there are no pools.
    return np.concatenate([np.empty((0, len(FEATURE_NAMES))), *parts])


@dataclass(frozen=True)
class BuiltinRankerModel:
    feature_weights: tuple[float, ...]
    bias: float
    feature_spec_version: int = FEATURE_SPEC_VERSION

    def __post_init__(self):
        if len(self.feature_weights) != len(FEATURE_NAMES):
            raise ValueError(f"feature_weights holds "
                             f"{len(self.feature_weights)} weights, not "
                             f"{len(FEATURE_NAMES)}")
        values = list(self.feature_weights) + [self.bias]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("model parameters must be finite numbers")
        version = self.feature_spec_version
        if version != FEATURE_SPEC_VERSION:
            raise ValueError(f"feature_spec_version must be "
                             f"{FEATURE_SPEC_VERSION}, got {version!r}")

    @classmethod
    def zeros(cls) -> "BuiltinRankerModel":
        return cls(feature_weights=(0.0,) * len(FEATURE_NAMES), bias=0.0)

    def save(self, path: str | Path):
        # Not write_json_object: these keys stay in field order, unsorted,
        # because a run's manifest_key hashes the model file's bytes.
        Path(path).write_text(json.dumps(asdict(self), indent=2) + "\n",
                              encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "BuiltinRankerModel":
        """The model saved at ``path``; else a ValueError naming the file."""
        return load_json_object(path, lambda rec: cls(
            feature_weights=tuple(json_field(rec, "feature_weights", ARRAY,
                                             items=NUMBER)),
            bias=json_field(rec, "bias", NUMBER),
            feature_spec_version=json_field(rec, "feature_spec_version",
                                            INTEGER)))


class BuiltinRanker:
    """Scores a question's candidate pool with a linear model. The model is
    immutable, and each memo entry is one (text, candidate) tuple, read and
    replaced whole, so concurrent scoring is safe."""

    def __init__(self, model: BuiltinRankerModel, index: InvertedIndex):
        self.model = model
        self.index = index
        self._w = np.array(model.feature_weights)
        self._memo: Memo = {}

    def rank_pool(self, question: str, para_ids: Sequence[str],
                  texts: Sequence[str]) -> np.ndarray:
        """Scores of ``texts``, the texts of ``para_ids``, from one
        :func:`feature_rows` call. A text that is the indexed text of its
        para_id has its features read from the index's postings; any other
        text, from its own tokens."""
        candidates = [_candidate(self.index, self._memo, para_id, text)
                      for para_id, text in zip(para_ids, texts)]
        x = feature_rows(self.index, [(question, candidates)])
        # vecdot takes one 6-element dot per row, as ``row @ w`` does; a
        # matrix product or a column sum may add in another order and
        # differ from it in the last bit.
        return np.vecdot(x, self._w) + self.model.bias


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 0.3
    l2: float = 1e-4
    holdout_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got "
                             f"{self.learning_rate}")
        if not 0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")
        if not 0 <= self.holdout_fraction < 1:
            raise ValueError(f"holdout_fraction must be in [0, 1), got "
                             f"{self.holdout_fraction}")


@dataclass(frozen=True)
class TrainReport:
    n_train: int
    n_holdout: int
    holdout_accuracy: float


def _example_features(examples: Sequence, index: InvertedIndex
                      ) -> np.ndarray:
    """Feature rows of ranker examples, from one :func:`feature_rows` call
    with each example as a pool of one."""
    memo: Memo = {}
    return feature_rows(index, [
        (ex.question, [_candidate(index, memo, ex.para_id, ex.text)])
        for ex in examples])


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

    x = _example_features(examples, index)
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

    Set-up is per distinct token: each lowercased token gets an id in
    first-seen order, its idf and question membership are looked up once
    and gathered back by id, and each token's previous occurrence comes
    from a stable sort of the ids. The k spans are k rounds of ``argmax``
    over the (start, length) score matrix, each taken span set to -inf;
    ``argmax`` returns the first maximum, so score ties go to the earliest
    start and then the shortest span.
    """

    def __init__(self, index: InvertedIndex):
        self.index = index

    def read_pool(self, question: str, para_ids: Sequence[str],
                  texts: Sequence[str],
                  k: int) -> list[list[tuple[int, int, float]]]:
        """One :meth:`read_text` span list per text."""
        return [self.read_text(question, text, k) for text in texts]

    def read_text(self, question: str, text: str,
                  k: int) -> list[tuple[int, int, float]]:
        matches = list(_TOKEN_RE.finditer(text))
        if not matches:
            return [(0, len(text), 0.0)]
        first: dict[str, int] = {}  # distinct lowercased token -> id
        ids = np.array([first.setdefault(m.group().lower(), len(first))
                        for m in matches], dtype=np.int64)
        q_terms = set(tokenize(question, self.index.stopwords))
        in_q = np.array([token in q_terms for token in first], dtype=bool)
        idf = self.index.indexed_idf(first)
        q_idf = np.where(in_q, idf, 0.0)[ids]
        novelty = np.where(in_q, 0.0, np.maximum(idf - IDF_FLOOR, 0.0))[ids]
        win_w = novelty if novelty.any() else q_idf
        # A stable sort lists the positions of one id in ascending order,
        # side by side: each one's predecessor is its previous occurrence.
        order = np.argsort(ids, kind="stable")
        again = ids[order[1:]] == ids[order[:-1]]
        prev = np.full(len(ids), -1, dtype=np.int64)
        prev[order[1:][again]] = order[:-1][again]

        scores = np.empty((len(ids), MAX_SPAN_TOKENS))
        _kernels.span_score_matrix(win_w, q_idf, prev, MAX_SPAN_TOKENS,
                                   CTX_RADIUS, CTX_WEIGHT, LENGTH_PENALTY,
                                   scores)
        # Windows past the text's end hold -inf, as does each span taken.
        flat = scores.ravel()
        out = []
        for _ in range(k):
            best = int(flat.argmax())
            score = float(flat[best])
            if score == -math.inf:
                break
            flat[best] = -math.inf
            start, last = divmod(best, MAX_SPAN_TOKENS)
            out.append((matches[start].start(),
                        matches[start + last].end(), score))
        return out
