"""Correctness checks that share no code with the program under test.

Everything here is written from the method's definition: its own
tokenizer, its own dense numpy BM25, its own SQuAD answer normalization
and its own reader truncation. Each check returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import json
import math
import re
import string
from pathlib import Path

import numpy as np

# The classic 33-word Lucene English stopword list.
STOPWORDS = frozenset("""a an and are as at be but by for if in into is it no
not of on or such that the their then there these they this to was will
with""".split())
_TOKEN = re.compile(r"[^\W_]+")
RTOL = 1e-9


def raw_tokens(text: str) -> list[str]:
    """Maximal runs of Unicode letters and digits, lowercased."""
    return _TOKEN.findall(text.lower())


def index_terms(text: str) -> list[str]:
    return [t for t in raw_tokens(text) if t not in STOPWORDS]


def read_paragraph_texts(path: str | Path) -> dict[str, str]:
    """para_id -> title-prepended text, read straight from the JSONL file."""
    texts = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                title, body = rec["title"], rec["body"]
                texts[rec["para_id"]] = f"{title}\n{body}" if title else body
    return texts


# -- BM25 ------------------------------------------------------------------

class ReferenceBm25:
    """Okapi BM25 (Lucene idf) into a dense score vector over every
    paragraph. Only the terms a check needs are kept, so a 100k-paragraph
    corpus costs one tokenizing pass."""

    def __init__(self, texts: dict[str, str], terms, k1: float = 0.9,
                 b: float = 0.4):
        self.k1, self.b = k1, b
        self.pids = list(texts)
        self._row = {pid: i for i, pid in enumerate(self.pids)}
        wanted = set(terms)
        n = len(self.pids)
        doc_len = np.zeros(n)
        rows: dict[str, list[int]] = {t: [] for t in wanted}
        for i, pid in enumerate(self.pids):
            toks = index_terms(texts[pid])
            doc_len[i] = len(toks)
            for t in wanted.intersection(toks):
                rows[t].extend([i] * toks.count(t))
        # term -> (rows holding it, term frequency in each)
        self._postings = {t: np.unique(np.array(r, dtype=np.int64),
                                       return_counts=True)
                          for t, r in rows.items()}
        avg = doc_len.sum() / n if n else 0.0
        self._norm = k1 * (1.0 - b + b * (doc_len / avg if avg else 0.0))
        self._n = n
        # Lexicographic position of each para_id breaks score ties.
        self._lex = np.empty(n, dtype=np.int64)
        self._lex[np.argsort(np.array(self.pids, dtype=object))] = \
            np.arange(n)

    def idf(self, term: str) -> float:
        df = float(len(self._postings[term][0]))
        return math.log(1.0 + (self._n - df + 0.5) / (df + 0.5))

    def scores(self, weights: dict[str, float]) -> np.ndarray:
        """Dense score vector over every paragraph."""
        total = np.zeros(self._n)
        for term in sorted(weights):
            docs, tf = self._postings[term]
            tf = tf.astype(np.float64)
            total[docs] += weights[term] * self.idf(term) * (
                tf * (self.k1 + 1.0) / (tf + self._norm[docs]))
        return total

    def top(self, scores: np.ndarray, n: int) -> list[tuple[str, float]]:
        cand = np.flatnonzero(scores > 0.0)
        order = np.lexsort((self._lex[cand], -scores[cand]))[:n]
        return [(self.pids[i], float(scores[i])) for i in cand[order]]

    def score_of(self, scores: np.ndarray, pid: str) -> float:
        return float(scores[self._row[pid]])


def question_weights(question: str) -> dict[str, float]:
    weights: dict[str, float] = {}
    for t in index_terms(question):
        weights[t] = weights.get(t, 0.0) + 1.0
    return weights


def rescaled(weights: dict[str, float]) -> dict[str, float]:
    """Positive weights only, scaled to sum to one."""
    positive = {t: w for t, w in weights.items() if w > 0.0}
    total = sum(positive.values())
    return {t: w / total for t, w in positive.items()}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-300)


def compare_hits(label: str, hits, ref: ReferenceBm25, scores: np.ndarray,
                 n: int) -> list[str]:
    """The program's top-n must have the reference's score profile, each
    hit must carry its own reference score, and equal scores must be in
    para_id order. Near-ties (within RTOL) may swap."""
    expected = ref.top(scores, n)
    errors = []
    if len(hits) != len(expected):
        return [f"{label}: {len(hits)} hits, reference has {len(expected)}"]
    if len({pid for pid, _ in hits}) != len(hits):
        errors.append(f"{label}: duplicate para_id in hits")
    for i, ((pid, s), (_, rs)) in enumerate(zip(hits, expected)):
        if not _close(s, rs):
            errors.append(f"{label}: rank {i} score {s!r}, reference {rs!r}")
        elif not _close(s, ref.score_of(scores, pid)):
            errors.append(f"{label}: {pid} score {s!r}, reference "
                          f"{ref.score_of(scores, pid)!r}")
        if i and hits[i - 1][1] == s and hits[i - 1][0] > pid:
            errors.append(f"{label}: tie at rank {i} not in para_id order")
    return errors[:5]


# -- answers ---------------------------------------------------------------

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = frozenset(string.punctuation)


def normalize(s: str) -> str:
    """SQuAD v1.1 answer normalization."""
    s = "".join(ch for ch in s.lower() if ch not in _PUNCT)
    return " ".join(_ARTICLES.sub(" ", s).split())


def em(pred: str, golds) -> float:
    return float(any(normalize(pred) == normalize(g) for g in golds))


def f1(pred: str, golds) -> float:
    best = 0.0
    p = normalize(pred).split()
    for g in golds:
        gt = normalize(g).split()
        if not p and not gt:
            return 1.0
        common = sum(min(p.count(t), gt.count(t)) for t in set(p))
        if common:
            prec, rec = common / len(p), common / len(gt)
            best = max(best, 2 * prec * rec / (prec + rec))
    return best


def contains(text: str, golds) -> bool:
    norm = normalize(text)
    return any(normalize(g) and normalize(g) in norm for g in golds)


def reader_text(question: str, text: str, budget: int = 384) -> str:
    """The prefix of ``text`` a reader may see: the question's raw tokens
    and the paragraph's share the token budget, paragraph first."""
    q_count = min(len(raw_tokens(question)), budget - 1)
    keep = max(1, budget - q_count)
    ends = [m.end() for m in _TOKEN.finditer(text)]
    return text if len(ends) <= keep else text[:ends[keep - 1]]


def check_answers(question: str, answers, texts: dict[str, str],
                  read_ids) -> list[str]:
    """Span, ordering and dedup properties every answer list must have.

    ``answers`` are (text, para_id, start, end, fused) tuples; ``read_ids``
    are the paragraphs the reader was given."""
    errors = []
    seen = set()
    prev = math.inf
    for text, pid, start, end, fused in answers:
        full = texts[pid]
        if full[start:end] != text:
            errors.append(f"answer {text!r} is not {pid}[{start}:{end}]")
        if not 0 <= start < end <= len(reader_text(question, full)):
            errors.append(f"answer span [{start}, {end}) of {pid} outside "
                          f"the reader's truncated text")
        if pid not in read_ids:
            errors.append(f"answer from {pid}, which was not read")
        if fused > 1.0 + 1e-12:
            errors.append(f"fused score {fused!r} above 1")
        if fused > prev:
            errors.append("fused scores increase down the answer list")
        prev = fused
        key = normalize(text)
        if key in seen:
            errors.append(f"normalized answer {key!r} repeated")
        seen.add(key)
    return errors
