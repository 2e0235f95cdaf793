"""Immutable inverted index with Okapi BM25 scoring.

Lucene-style idf ``ln(1 + (N - df + 0.5)/(df + 0.5))`` over paragraph-level
documents; defaults k1=0.9, b=0.4. Postings are stored as CSR-style numpy
arrays so the scoring inner loop runs through the kernels in
:mod:`mindstone._kernels`.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from . import _kernels
from .corpus import DEFAULT_STOPWORDS, Paragraph, tokenize
from .errors import IndexBuildError, UnknownDocumentError

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        if not self.k1 > 0:
            raise ValueError(f"k1 must be > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class QueryVector:
    """Sparse term -> weight map (the question q, or the expanded q')."""

    weights: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class RetrievalResult:
    """Hits sorted by score descending, ties by para_id ascending."""

    hits: list[tuple[str, float]]

    def para_ids(self) -> list[str]:
        return [pid for pid, _ in self.hits]


def stopword_digest(stopwords: Iterable[str]) -> str:
    payload = "\n".join(sorted(stopwords)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class InvertedIndex:
    """Built once from a paragraph stream, then read-only."""

    def __init__(self, *, params, stopwords, doc_ids, doc_len, terms,
                 term_offsets, post_doc_ids, post_tfs, doc_offsets,
                 doc_term_ids, doc_tfs):
        self.params = params
        self.stopwords = frozenset(stopwords)
        self._doc_ids = list(doc_ids)
        self._ord_of = {pid: i for i, pid in enumerate(self._doc_ids)}
        self._doc_len = np.asarray(doc_len, dtype=np.int64)
        self._terms = list(terms)
        self._term_id = {t: i for i, t in enumerate(self._terms)}
        self._term_offsets = np.asarray(term_offsets, dtype=np.int64)
        self._post_doc_ids = np.asarray(post_doc_ids, dtype=np.int64)
        self._post_tfs = np.asarray(post_tfs, dtype=np.float64)
        self._doc_offsets = np.asarray(doc_offsets, dtype=np.int64)
        self._doc_term_ids = np.asarray(doc_term_ids, dtype=np.int64)
        self._doc_tfs = np.asarray(doc_tfs, dtype=np.float64)

        n = len(self._doc_ids)
        self.doc_count = n
        self.avg_doc_len = float(self._doc_len.mean()) if n else 0.0
        # Tie-break rank: position of each para_id in lexicographic order.
        order = sorted(range(n), key=lambda i: self._doc_ids[i])
        self._id_rank = np.empty(n, dtype=np.int64)
        for rank, i in enumerate(order):
            self._id_rank[i] = rank
        # Per-term idf and per-doc BM25 length normalization.
        df = np.diff(self._term_offsets).astype(np.float64)
        self._idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
        if n and self.avg_doc_len > 0:
            rel_len = self._doc_len / self.avg_doc_len
        else:
            rel_len = np.zeros(n)
        self._norm = params.k1 * (1.0 - params.b + params.b * rel_len)
        self.build_checksum = self._checksum()

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, paragraphs: Iterable[Paragraph],
              params: Bm25Params = Bm25Params(),
              stopwords=DEFAULT_STOPWORDS) -> "InvertedIndex":
        doc_ids: list[str] = []
        seen: set[str] = set()
        doc_len: list[int] = []
        doc_counts: list[Counter] = []
        postings: dict[str, list[tuple[int, int]]] = {}
        for para in paragraphs:
            if para.para_id in seen:
                raise IndexBuildError(f"duplicate para_id: {para.para_id!r}")
            seen.add(para.para_id)
            ordinal = len(doc_ids)
            doc_ids.append(para.para_id)
            terms = tokenize(para.full_text, stopwords)
            doc_len.append(len(terms))
            counts = Counter(terms)
            doc_counts.append(counts)
            for term, tf in counts.items():
                postings.setdefault(term, []).append((ordinal, tf))

        terms = sorted(postings)
        term_id = {t: i for i, t in enumerate(terms)}
        term_offsets = np.zeros(len(terms) + 1, dtype=np.int64)
        post_doc_ids: list[int] = []
        post_tfs: list[float] = []
        for i, term in enumerate(terms):
            plist = postings[term]  # ordinal-ascending by construction
            post_doc_ids.extend(d for d, _ in plist)
            post_tfs.extend(tf for _, tf in plist)
            term_offsets[i + 1] = len(post_doc_ids)

        doc_offsets = np.zeros(len(doc_ids) + 1, dtype=np.int64)
        doc_term_ids: list[int] = []
        doc_tfs: list[float] = []
        for i, counts in enumerate(doc_counts):
            for term in sorted(counts):
                doc_term_ids.append(term_id[term])
                doc_tfs.append(counts[term])
            doc_offsets[i + 1] = len(doc_term_ids)

        return cls(params=params, stopwords=stopwords, doc_ids=doc_ids,
                   doc_len=doc_len, terms=terms, term_offsets=term_offsets,
                   post_doc_ids=post_doc_ids, post_tfs=post_tfs,
                   doc_offsets=doc_offsets, doc_term_ids=doc_term_ids,
                   doc_tfs=doc_tfs)

    # -- introspection ---------------------------------------------------

    def __contains__(self, para_id: str) -> bool:
        return para_id in self._ord_of

    def ordinal(self, para_id: str) -> int:
        try:
            return self._ord_of[para_id]
        except KeyError:
            raise UnknownDocumentError(f"unknown para_id: {para_id!r}") from None

    def para_id(self, ordinal: int) -> str:
        self._check_ordinal(ordinal)
        return self._doc_ids[ordinal]

    def doc_len(self, ordinal: int) -> int:
        self._check_ordinal(ordinal)
        return int(self._doc_len[ordinal])

    def doc_freq(self, term: str) -> int:
        tid = self._term_id.get(term)
        if tid is None:
            return 0
        return int(self._term_offsets[tid + 1] - self._term_offsets[tid])

    def idf(self, term: str) -> float:
        tid = self._term_id.get(term)
        if tid is not None:
            return float(self._idf[tid])
        df = 0.0
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def term_frequency(self, term: str, doc_ordinal: int) -> int:
        self._check_ordinal(doc_ordinal)
        return int(self.term_frequencies(term, np.array([doc_ordinal]))[0])

    def term_frequencies(self, term: str, ordinals: np.ndarray) -> np.ndarray:
        """Frequency of ``term`` in each document of ``ordinals`` (valid
        ordinals), 0 where absent, by binary search of its postings."""
        tid = self._term_id.get(term)
        if tid is None:
            return np.zeros(len(ordinals))
        s, e = self._term_offsets[tid], self._term_offsets[tid + 1]
        docs = self._post_doc_ids[s:e]
        pos = np.minimum(np.searchsorted(docs, ordinals), e - s - 1)
        return np.where(docs[pos] == ordinals, self._post_tfs[s + pos], 0.0)

    def doc_lengths(self, ordinals: np.ndarray) -> np.ndarray:
        """Indexed token counts of the documents ``ordinals``."""
        return self._doc_len[ordinals]

    def bm25_norms(self, ordinals: np.ndarray) -> np.ndarray:
        """BM25 length normalizers ``k1 * (1 - b + b * len / avg_len)`` of
        the documents ``ordinals``."""
        return self._norm[ordinals]

    def matches_text(self, ordinal: int, text: str) -> bool:
        """True when ``text`` tokenizes to exactly the term counts indexed
        for document ``ordinal``."""
        self._check_ordinal(ordinal)
        counts = Counter(tokenize(text, self.stopwords))
        s, e = self._doc_offsets[ordinal], self._doc_offsets[ordinal + 1]
        if len(counts) != e - s:
            return False
        return all(counts.get(self._terms[tid]) == tf for tid, tf in
                   zip(self._doc_term_ids[s:e].tolist(),
                       self._doc_tfs[s:e].tolist()))

    def _check_ordinal(self, ordinal: int):
        if not 0 <= ordinal < self.doc_count:
            raise UnknownDocumentError(f"doc ordinal out of range: {ordinal}")

    # -- scoring ---------------------------------------------------------

    def bm25_score(self, term: str, doc_ordinal: int) -> float:
        """Okapi BM25 contribution of one term to one document."""
        tf = self.term_frequency(term, doc_ordinal)
        if tf == 0:
            return 0.0
        k1 = self.params.k1
        return self.idf(term) * (tf * (k1 + 1.0)) / (tf + self._norm[doc_ordinal])

    def _accumulate(self, weights: dict[str, float]) -> np.ndarray:
        """Dense score array for a term -> multiplier map (multipliers are
        applied on top of idf). Terms iterate in sorted order so the float
        accumulation order is reproducible."""
        scores = np.zeros(self.doc_count)
        known = [(t, w) for t, w in sorted(weights.items())
                 if t in self._term_id]
        if not known or not self.doc_count:
            return scores
        starts = np.empty(len(known), dtype=np.int64)
        ends = np.empty(len(known), dtype=np.int64)
        term_weights = np.empty(len(known))
        for i, (t, w) in enumerate(known):
            tid = self._term_id[t]
            starts[i] = self._term_offsets[tid]
            ends[i] = self._term_offsets[tid + 1]
            term_weights[i] = w * self._idf[tid]
        _kernels.bm25_accumulate(starts, ends, self._post_doc_ids,
                                 self._post_tfs, term_weights, self._norm,
                                 self.params.k1 + 1.0, scores)
        return scores

    def _top_n(self, scores: np.ndarray, n: int) -> RetrievalResult:
        if n <= 0:
            return RetrievalResult([])
        cand = np.flatnonzero(scores > 0.0)
        if cand.size > n:
            # Keep every candidate scoring at least the n-th largest score,
            # so ties across the cut reach the para_id tie-break below.
            cut = np.partition(scores[cand], cand.size - n)[cand.size - n]
            cand = cand[scores[cand] >= cut]
        order = np.lexsort((self._id_rank[cand], -scores[cand]))
        top = cand[order[:n]]
        hits = [(self._doc_ids[d], float(scores[d])) for d in top]
        return RetrievalResult(hits)

    def retrieve(self, question: str, n: int) -> RetrievalResult:
        """Top-n documents under summed BM25; duplicate question terms
        multiply their term's contribution."""
        if n < 0:
            raise ValueError("n must be >= 0")
        counts = Counter(tokenize(question, self.stopwords))
        weights = {t: float(c) for t, c in counts.items()}
        return self._top_n(self._accumulate(weights), n)

    def retrieve_weighted(self, q: QueryVector, n: int) -> RetrievalResult:
        """Top-n under weighted BM25; weights are rescaled to sum to 1 over
        the positive entries, non-positive entries are dropped."""
        if n < 0:
            raise ValueError("n must be >= 0")
        positive = {t: w for t, w in q.weights.items() if w > 0.0}
        if not positive:
            return RetrievalResult([])
        total = sum(positive.values())
        rescaled = {t: w / total for t, w in positive.items()}
        return self._top_n(self._accumulate(rescaled), n)

    def doc_tfidf_top(self, para_id: str, top_terms: int) -> QueryVector:
        """TF-IDF weights of the document's ``top_terms`` most frequent terms
        (frequency ties broken by term ascending)."""
        if top_terms < 0:
            raise ValueError("top_terms must be >= 0")
        ordinal = self.ordinal(para_id)
        s, e = self._doc_offsets[ordinal], self._doc_offsets[ordinal + 1]
        if top_terms == 0 or s == e:
            return QueryVector({})
        tids = self._doc_term_ids[s:e]
        tfs = self._doc_tfs[s:e]
        order = np.lexsort((tids, -tfs))[:top_terms]
        weights = {self._terms[tids[i]]: float(tfs[i] * self._idf[tids[i]])
                   for i in order}
        return QueryVector(weights)

    # -- persistence -----------------------------------------------------

    def _checksum(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps({
            "k1": self.params.k1, "b": self.params.b,
            "stopwords": stopword_digest(self.stopwords),
            "doc_ids": self._doc_ids, "terms": self._terms,
        }, sort_keys=True).encode("utf-8"))
        for arr in (self._term_offsets, self._post_doc_ids, self._post_tfs,
                    self._doc_len, self._doc_offsets, self._doc_term_ids,
                    self._doc_tfs):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def manifest(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "k1": self.params.k1,
            "b": self.params.b,
            "stopword_sha256": stopword_digest(self.stopwords),
            "doc_count": self.doc_count,
            "avg_doc_len": self.avg_doc_len,
            "build_checksum": self.build_checksum,
        }

    def save(self, directory: str | Path):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "manifest.json").write_text(
            json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        (directory / "strings.json").write_text(
            json.dumps({"terms": self._terms, "doc_ids": self._doc_ids,
                        "stopwords": sorted(self.stopwords)},
                       ensure_ascii=False) + "\n",
            encoding="utf-8")
        np.savez(directory / "arrays.npz",
                 term_offsets=self._term_offsets,
                 post_doc_ids=self._post_doc_ids,
                 post_tfs=self._post_tfs,
                 doc_len=self._doc_len,
                 doc_offsets=self._doc_offsets,
                 doc_term_ids=self._doc_term_ids,
                 doc_tfs=self._doc_tfs)

    @classmethod
    def load(cls, directory: str | Path) -> "InvertedIndex":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text("utf-8"))
        if manifest.get("format_version") != FORMAT_VERSION:
            raise IndexBuildError(
                f"unsupported index format_version: {manifest.get('format_version')}")
        strings = json.loads((directory / "strings.json").read_text("utf-8"))
        arrays = np.load(directory / "arrays.npz")
        idx = cls(params=Bm25Params(k1=manifest["k1"], b=manifest["b"]),
                  stopwords=frozenset(strings["stopwords"]),
                  doc_ids=strings["doc_ids"],
                  doc_len=arrays["doc_len"],
                  terms=strings["terms"],
                  term_offsets=arrays["term_offsets"],
                  post_doc_ids=arrays["post_doc_ids"],
                  post_tfs=arrays["post_tfs"],
                  doc_offsets=arrays["doc_offsets"],
                  doc_term_ids=arrays["doc_term_ids"],
                  doc_tfs=arrays["doc_tfs"])
        if idx.build_checksum != manifest["build_checksum"]:
            raise IndexBuildError("index payload does not match manifest checksum")
        return idx


def build_index(paragraphs: Iterable[Paragraph],
                params: Bm25Params = Bm25Params(),
                stopwords=DEFAULT_STOPWORDS) -> InvertedIndex:
    """Convenience wrapper over :meth:`InvertedIndex.build`."""
    return InvertedIndex.build(paragraphs, params, stopwords)
