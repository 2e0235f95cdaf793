"""Immutable inverted index with Okapi BM25 scoring.

Lucene-style idf ``ln(1 + (N - df + 0.5)/(df + 0.5))`` over paragraph-level
documents; defaults k1=0.9, b=0.4. Only per-document term rows (CSR-style
numpy arrays, which RM3 feedback reads) are built and saved. The per-term
postings that the kernels in :mod:`mindstone._kernels` score, and the
document lengths, are derived from the rows on build and on load, the
postings by a stable radix sort of the rows' term ids. The rows' term ids
and counts are held, and saved, as the narrowest unsigned integers that
hold their largest value; the postings stay int64 and float64. Each
posting's BM25 denominator ``tf + norm[doc]`` is derived at the first
scoring call and never saved. The build checksum covers what is saved:
the parameters, the strings and the rows.

Top-n selection can take seed documents, whose scores bound the n-th
largest score from below (WAND's initial threshold): RM3's second pass
seeds it with the first-pass pool, so it sorts out only the documents
scoring at least that bound, not every document the expanded query
touches.

Documents are held in para_id order (a direct construction must pass
``doc_ids`` rising), so hits that tie on score come out in ordinal order.
The build counts with arrays, not per-document Counters: each raw token
gets an id in first-seen order as it is tokenized, each distinct raw token
is lowercased and stopword-checked once (the same terms as lowering every
token), and one ``np.unique`` over ``rank * n_terms + term_id`` keys (a
document's rank in para_id order) gives the rows, with their counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
import zlib
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from . import _kernels
from .corpus import (_TOKEN_RE, ARRAY, DEFAULT_STOPWORDS, INTEGER, NUMBER,
                     STRING, Paragraph, json_field, load_json_object,
                     tokenize, write_json_object)
from .errors import IndexBuildError, UnknownDocumentError

# 5: documents in para_id order; the checksum covers what ``save`` writes.
FORMAT_VERSION = 5
# The saved arrays, which the checksum hashes as held.
_ROW_ARRAYS = ("doc_offsets", "doc_term_ids", "doc_tfs")


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

    def __init__(self, *, params, stopwords, doc_ids, terms, doc_offsets,
                 doc_term_ids, doc_tfs):
        self.params = params
        self.stopwords = frozenset(stopwords)
        self._doc_ids = list(doc_ids)
        self._ord_of = {pid: i for i, pid in enumerate(self._doc_ids)}
        self._terms = list(terms)
        self._term_id = {t: i for i, t in enumerate(self._terms)}
        self._doc_offsets = np.asarray(doc_offsets, dtype=np.int64)
        self._doc_term_ids = _narrowest(doc_term_ids)
        self._doc_tfs = _narrowest(doc_tfs)

        n = len(self._doc_ids)
        self._term_offsets = np.zeros(len(self._terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._doc_term_ids, minlength=len(self._terms)),
                  out=self._term_offsets[1:])
        # Postings: the same counts read by term. A stable sort by term id
        # keeps each term's documents in ascending ordinal order. Each row's
        # document is gathered as the narrowest integer that holds it, so
        # that beside the arrays kept, one full-size int64 array is live.
        by_term = _stable_argsort(self._doc_term_ids, len(self._terms))
        self._post_tfs = self._doc_tfs[by_term].astype(np.float64)
        row_doc = np.repeat(np.arange(n, dtype=np.min_scalar_type(n)),
                            np.diff(self._doc_offsets))
        self._post_doc_ids = row_doc[by_term]
        del row_doc, by_term
        self._post_doc_ids = self._post_doc_ids.astype(np.int64)
        # Whole-number counts sum exactly in float64, in any order.
        self._doc_len = np.bincount(self._post_doc_ids,
                                    weights=self._post_tfs,
                                    minlength=n).astype(np.int64)

        self.doc_count = n
        self.avg_doc_len = float(self._doc_len.mean()) if n else 0.0
        # Per-term idf and per-doc BM25 length normalization.
        df = np.diff(self._term_offsets).astype(np.float64)
        self._idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
        self._norm = self.bm25_norms(self._doc_len)
        self.build_checksum = self._checksum()

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, paragraphs: Iterable[Paragraph],
              params: Bm25Params = Bm25Params(),
              stopwords=DEFAULT_STOPWORDS) -> "InvertedIndex":
        doc_ids: list[str] = []
        # Raw token -> id in first-seen order, assigned without per-token
        # Python code: a missing key's id is the dict's size.
        raw: defaultdict[str, int] = defaultdict()
        raw.default_factory = raw.__len__
        token_ids = array("q")
        token_counts = array("q")
        for para in paragraphs:
            doc_ids.append(para.para_id)
            before = len(token_ids)
            token_ids.extend(map(raw.__getitem__,
                                 _TOKEN_RE.findall(para.full_text)))
            token_counts.append(len(token_ids) - before)
        # The factory refers back to the dict: break that cycle, so the raw
        # tokens are freed when the build returns, not at the next GC pass.
        raw.default_factory = None
        # Each document's rank in para_id order; a repeat sorts by its copy.
        order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        doc_ids = [doc_ids[i] for i in order]
        if (repeat := _first_not_rising(doc_ids)) is not None:
            raise IndexBuildError(f"duplicate para_id: {repeat!r}")
        rank = np.empty(len(doc_ids), dtype=np.int64)
        rank[order] = np.arange(len(doc_ids))
        del order

        # Each distinct raw token is lowercased (and stopword-checked) once;
        # tokens sharing a lowercase form share its term id.
        lowered = [token.lower() for token in raw]
        terms = sorted({t for t in lowered if t not in stopwords})
        term_id = {t: i for i, t in enumerate(terms)}
        remap = np.array([term_id.get(t, -1) for t in lowered], dtype=np.int64)
        tids = remap[np.frombuffer(token_ids, dtype=np.int64)]
        del token_ids
        kept = tids >= 0
        # One (rank, term) key per kept token, made in place to bound the
        # peak: the sorted unique keys are the rows, by document in para_id
        # order and then by term id, which is the order of ``terms``.
        keys = np.repeat(rank, np.frombuffer(token_counts,
                                             dtype=np.int64))[kept]
        keys *= len(terms)
        keys += tids[kept]
        del tids, kept, rank
        keys, tfs = np.unique(keys, return_counts=True)
        # Document d's rows are the keys in [d * n_terms, (d + 1) * n_terms).
        n_terms = max(len(terms), 1)
        doc_offsets = np.searchsorted(
            keys, np.arange(len(doc_ids) + 1, dtype=np.int64) * n_terms)
        keys %= n_terms
        doc_term_ids, tfs = _narrowest(keys), _narrowest(tfs)
        del keys

        return cls(params=params, stopwords=stopwords, doc_ids=doc_ids,
                   terms=terms, doc_offsets=doc_offsets,
                   doc_term_ids=doc_term_ids, doc_tfs=tfs)

    # -- introspection ---------------------------------------------------

    def __contains__(self, para_id: str) -> bool:
        return para_id in self._ord_of

    @property
    def doc_ids(self) -> list[str]:
        """The indexed para_ids in ordinal order (which is para_id order);
        the list is the index's own, not a copy."""
        return self._doc_ids

    def ordinal(self, para_id: str) -> int:
        try:
            return self._ord_of[para_id]
        except KeyError:
            raise UnknownDocumentError(f"unknown para_id: {para_id!r}") from None

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

    def indexed_idf(self, terms: Iterable[str]) -> np.ndarray:
        """The idf of each of ``terms``, 0.0 for a term in no indexed
        document (a stopword or an unseen word)."""
        tids = np.fromiter(map(self._term_id.get, terms, repeat(-1)),
                           np.int64)
        if not self._terms:
            return np.zeros(len(tids))
        # An unknown term's id, -1, reads a df of offsets[0] - offsets[-1],
        # which is <= 0 as for a term in no document.
        df = self._term_offsets[tids + 1] - self._term_offsets[tids]
        return np.where(df > 0, self._idf[tids], 0.0)

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

    def bm25_norms(self, lengths: np.ndarray) -> np.ndarray:
        """BM25 length normalizers ``k1 * (1 - b + b * len / avg_len)`` of
        texts of ``lengths`` indexed tokens (``len / avg_len`` is 0 over an
        empty index)."""
        if self.avg_doc_len > 0:
            rel_len = lengths / self.avg_doc_len
        else:
            rel_len = np.zeros(len(lengths))
        return self.params.k1 * (1.0 - self.params.b + self.params.b * rel_len)

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

    @cached_property
    def _post_den(self) -> np.ndarray:
        """Each posting's BM25 denominator ``tf + norm[doc]``. Derived at
        the first scoring call, not in ``__init__``, so that building or
        loading an index does not hold it."""
        return self._post_tfs + self._norm[self._post_doc_ids]

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
                                 self._post_tfs, term_weights, self._post_den,
                                 self.params.k1 + 1.0, scores)
        return scores

    def _top_n(self, scores: np.ndarray, n: int,
               seed: Iterable[str] = ()) -> RetrievalResult:
        """The n best positive ``scores``. When the ``seed`` para_ids hold
        at least n distinct documents, the n-th largest of their scores is
        a lower bound on the n-th largest overall; if it is positive, only
        documents scoring at least that are candidates. The hits are the
        same either way. Candidates are in ordinal order, which is para_id
        order, so a stable sort by score breaks ties by para_id."""
        if n <= 0:
            return RetrievalResult([])
        # A set, not np.unique: in numpy 2 its first plain call imports
        # numpy.ma, ~1.3 MB of resident memory.
        seeds = np.fromiter({self.ordinal(pid) for pid in seed}, np.int64)
        bound = 0.0
        if seeds.size >= n:
            bound = np.partition(scores[seeds], seeds.size - n)[seeds.size - n]
        cand = np.flatnonzero(scores >= bound if bound > 0.0 else scores > 0.0)
        if cand.size > n:
            # Keep every candidate scoring at least the n-th largest score,
            # so ties across the cut reach the para_id tie-break below.
            cut = np.partition(scores[cand], cand.size - n)[cand.size - n]
            cand = cand[scores[cand] >= cut]
        top = cand[np.argsort(-scores[cand], kind="stable")[:n]]
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

    def retrieve_weighted(self, q: QueryVector, n: int,
                          seed: Iterable[str] = ()) -> RetrievalResult:
        """Top-n under weighted BM25; weights are rescaled to sum to 1 over
        the positive entries, non-positive entries are dropped. ``seed``
        para_ids (for RM3, the first-pass pool) only speed up the top-n
        selection: see ``_top_n``."""
        if n < 0:
            raise ValueError("n must be >= 0")
        positive = {t: w for t, w in q.weights.items() if w > 0.0}
        if not positive:
            return RetrievalResult([])
        total = sum(positive.values())
        rescaled = {t: w / total for t, w in positive.items()}
        return self._top_n(self._accumulate(rescaled), n, seed)

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
        tfs = self._doc_tfs[s:e].astype(np.float64)
        order = np.lexsort((tids, -tfs))[:top_terms]
        weights = {self._terms[tids[i]]: float(tfs[i] * self._idf[tids[i]])
                   for i in order}
        return QueryVector(weights)

    # -- persistence -----------------------------------------------------

    def _checksum(self) -> str:
        """SHA-256 of the parameters, the strings and the saved row arrays
        as held. The derived arrays are a function of the rows, so they are
        not hashed."""
        h = hashlib.sha256()
        h.update(json.dumps({
            "k1": self.params.k1, "b": self.params.b,
            "stopwords": stopword_digest(self.stopwords),
            "doc_ids": self._doc_ids, "terms": self._terms,
        }, sort_keys=True).encode("utf-8"))
        for name in _ROW_ARRAYS:
            h.update(np.ascontiguousarray(getattr(self, "_" + name)))
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
        write_json_object(self.manifest(), directory / "manifest.json")
        # Not write_json_object: one compact UTF-8 line, since indenting
        # would put each term and doc id on its own line and grow the index.
        (directory / "strings.json").write_text(
            json.dumps({"terms": self._terms, "doc_ids": self._doc_ids,
                        "stopwords": sorted(self.stopwords)},
                       ensure_ascii=False) + "\n",
            encoding="utf-8")
        np.savez(directory / "arrays.npz", **{
            name: _narrowest(getattr(self, "_" + name))
            for name in _ROW_ARRAYS})

    @classmethod
    def load(cls, directory: str | Path) -> "InvertedIndex":
        directory = Path(directory)
        try:
            params, checksum = load_json_object(directory / "manifest.json",
                                                _read_manifest)
            terms, doc_ids, stopwords = load_json_object(
                directory / "strings.json", lambda strings: [
                    json_field(strings, name, ARRAY, items=STRING)
                    for name in ("terms", "doc_ids", "stopwords")])
        except (OSError, ValueError) as exc:  # each names its file
            raise IndexBuildError(str(exc)) from None
        arrays = _read_arrays(directory / "arrays.npz", len(doc_ids),
                              len(terms))
        idx = cls(params=params, stopwords=frozenset(stopwords),
                  doc_ids=doc_ids, terms=terms, **arrays)
        # Strings no build writes: a list that does not rise strictly (a
        # repeat would shadow its copy), a stopword among the terms, or a
        # term in no document (it has no postings).
        for name, items in (("doc_ids", doc_ids), ("terms", terms),
                            ("stopwords", stopwords)):
            if (later := _first_not_rising(items)) is not None:
                raise IndexBuildError(f"strings.json: {name} do not rise "
                                      f"strictly at {later!r}")
        if not idx.stopwords.isdisjoint(terms):
            stopword = min(idx.stopwords.intersection(terms))
            raise IndexBuildError(f"strings.json: term {stopword!r} is a "
                                  f"stopword")
        # Build writes lowercased tokens, and lowering one again is a no-op.
        if (unlowered := next((t for t in terms if not t or t != t.lower()),
                              None)) is not None:
            raise IndexBuildError(f"strings.json: term {unlowered!r} is not "
                                  f"a lowercase token")
        if (unused := np.flatnonzero(np.diff(idx._term_offsets) == 0)).size:
            raise IndexBuildError(f"strings.json: term {terms[unused[0]]!r} "
                                  f"is in no document")
        if idx.build_checksum != checksum:
            raise IndexBuildError("index payload does not match manifest checksum")
        return idx


def _read_manifest(manifest: dict) -> tuple[Bm25Params, str]:
    """The BM25 parameters and build checksum of a current-format manifest."""
    version = json_field(manifest, "format_version", INTEGER)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported index format_version {version}")
    return (Bm25Params(k1=json_field(manifest, "k1", NUMBER),
                       b=json_field(manifest, "b", NUMBER)),
            json_field(manifest, "build_checksum", STRING))


def _read_arrays(path: Path, n_docs: int, n_terms: int
                 ) -> dict[str, np.ndarray]:
    """The document term rows saved at ``path``, for ``n_docs`` documents
    over ``n_terms`` terms, in their saved dtypes but for ``doc_offsets``,
    which is widened to int64. An unreadable or damaged archive, or rows
    that lack an array, are not 1-D unsigned integers, hold a value past the
    int64 range, do not fit together, or hold what no build writes (a count
    of 0, or term ids that do not rise within a document), is an
    IndexBuildError naming the file: postings are derived by indexing with
    these values."""
    try:
        # Opened apart from the archive, so a damaged zip cannot leak it.
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh) as archive:
            missing = [name for name in _ROW_ARRAYS if name not in archive]
            if missing:
                raise IndexBuildError(
                    f"{path.name} has no array {missing[0]!r}")
            arrays = {name: archive[name] for name in _ROW_ARRAYS}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise IndexBuildError(f"{path.name} is unreadable: {exc}") from None
    for name, arr in arrays.items():
        if arr.dtype.kind != "u" or arr.ndim != 1:
            raise IndexBuildError(
                f"{path.name}: {name} is not a 1-D unsigned integer array")
        if arr.max(initial=0) > np.iinfo(np.int64).max:
            raise IndexBuildError(
                f"{path.name}: {name} hold a value past the int64 range")
    offsets = arrays["doc_offsets"] = arrays["doc_offsets"].astype(np.int64)
    ids, tfs = arrays["doc_term_ids"], arrays["doc_tfs"]
    if not (len(offsets) == n_docs + 1 and offsets[0] == 0
            and offsets[-1] == len(ids) == len(tfs)
            and (np.diff(offsets) >= 0).all()):
        raise IndexBuildError(
            f"{path.name}: doc_offsets do not delimit {n_docs} rows of "
            f"{len(ids)} doc_term_ids and {len(tfs)} doc_tfs")
    if len(ids) and ids.max() >= n_terms:
        raise IndexBuildError(
            f"{path.name}: doc_term_ids outside [0, {n_terms})")
    if not tfs.all():
        raise IndexBuildError(f"{path.name}: doc_tfs hold a count below 1")
    # Each id but a document's first must exceed the one before it.
    rising = ids[1:] > ids[:-1]
    starts = offsets[1:-1]
    rising[starts[(0 < starts) & (starts < len(ids))] - 1] = True
    if not rising.all():
        raise IndexBuildError(
            f"{path.name}: doc_term_ids do not rise within a document")
    return arrays


def _first_not_rising(items: list[str]) -> str | None:
    """The first of ``items`` not above the one before it, or None."""
    return next((b for a, b in zip(items, items[1:]) if not a < b), None)


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer ``keys`` in
    ``[0, bound)``, by least-significant-digit passes over 16-bit digits:
    numpy sorts 16-bit keys stably by radix, several times faster than
    64-bit ones. One pass when ``bound <= 2**16``. A stable order is
    unique, so the result is the same permutation. The cast to uint16
    keeps a key's low 16 bits."""
    order = np.argsort(keys.astype(np.uint16, copy=False), kind="stable")
    shift = 16
    while (bound - 1) >> shift > 0:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _narrowest(values) -> np.ndarray:
    """``values``, whole numbers >= 0, as the narrowest unsigned integers
    that hold the largest of them: the dtype that the index saves."""
    arr = np.asarray(values)
    return arr.astype(np.min_scalar_type(int(arr.max(initial=0))),
                      copy=False)
