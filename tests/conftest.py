"""Shared fixtures: the frozen F1/F2 corpora, a session-scoped index, the
trained builtin ranker, and independent scoring oracles."""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from mindstone.corpus import Paragraph, read_records
from mindstone.eval import GoldRecord, contains_answer, read_questions
from mindstone.index import InvertedIndex
from mindstone.scorers import BuiltinRanker, BuiltinReader
from mindstone.scorers.builtin import train_builtin_ranker
from mindstone.scorers.datasets import (build_dataset_aug2,
                                        build_dataset_finetune)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def f1_paragraphs() -> list[Paragraph]:
    return list(read_records(Paragraph, FIXTURES / "f1_paragraphs.jsonl"))


@pytest.fixture(scope="session")
def f1_index(f1_paragraphs) -> InvertedIndex:
    return InvertedIndex.build(f1_paragraphs)


@pytest.fixture(scope="session")
def f2_paragraphs() -> dict[str, Paragraph]:
    return {p.para_id: p
            for p in read_records(Paragraph,
                                  FIXTURES / "f2_paragraphs.jsonl")}


@pytest.fixture(scope="session")
def f2_records() -> list[GoldRecord]:
    records, skipped = read_questions(FIXTURES / "f2_questions.jsonl")
    assert skipped == 0
    return records


@pytest.fixture(scope="session")
def f2_index(f2_paragraphs) -> InvertedIndex:
    return InvertedIndex.build(f2_paragraphs.values())


@pytest.fixture(scope="session")
def trained_ranker(f2_records, f2_paragraphs, f2_index) -> BuiltinRanker:
    """Builtin ranker trained with the paired-paragraph phase followed by
    the retrieve-rerank augmentation phase (m=100, n=5)."""
    finetune = build_dataset_finetune(f2_records, f2_paragraphs.values())
    phase1, _ = train_builtin_ranker(finetune, f2_index)
    aug2 = build_dataset_aug2(f2_records, f2_index, f2_paragraphs,
                              BuiltinRanker(phase1, f2_index), m=100, n=5)
    model, _ = train_builtin_ranker(aug2, f2_index, init=phase1)
    return BuiltinRanker(model, f2_index)


@pytest.fixture(scope="session")
def f2_reader(f2_index) -> BuiltinReader:
    return BuiltinReader(f2_index)


@pytest.fixture(scope="session")
def metrics_golden() -> list[dict]:
    data = json.loads((FIXTURES / "metrics_golden.json").read_text("utf-8"))
    cases = data["cases"]
    assert len(cases) == 20
    return cases


class ContainmentOracleRanker:
    """+1 iff the paragraph contains a gold answer for the question."""

    def __init__(self, records):
        self._golds = {r.question: list(r.gold_answers) for r in records}

    def rank_pool(self, question: str, para_ids, texts) -> list[float]:
        golds = self._golds[question]
        return [1.0 if contains_answer(text, golds) else -1.0
                for text in texts]


@pytest.fixture(scope="session")
def oracle_ranker(f2_records) -> ContainmentOracleRanker:
    return ContainmentOracleRanker(f2_records)


# -- independent scoring oracle ---------------------------------------------
# A from-scratch BM25 evaluator sharing no code with mindstone.index: its own
# tokenizer, python-dict statistics, and scalar formula evaluation.

_ORACLE_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def oracle_tokens(text: str, stopwords) -> list[str]:
    return [t for t in _ORACLE_TOKEN.findall(text.lower())
            if t not in stopwords]


class BruteForceBm25:
    def __init__(self, paragraphs, k1: float, b: float, stopwords):
        self.k1, self.b = k1, b
        self.stopwords = set(stopwords)
        self.docs = {}
        for p in paragraphs:
            toks = oracle_tokens(p.full_text, self.stopwords)
            self.docs[p.para_id] = Counter(toks)
        self.lens = {pid: sum(c.values()) for pid, c in self.docs.items()}
        self.n = len(self.docs)
        self.avg = (sum(self.lens.values()) / self.n) if self.n else 0.0
        df = Counter()
        for counts in self.docs.values():
            df.update(counts.keys())
        self.df = df

    def idf(self, term: str) -> float:
        df = self.df.get(term, 0)
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def term_score(self, term: str, pid: str) -> float:
        tf = self.docs[pid].get(term, 0)
        if tf == 0:
            return 0.0
        rel = self.lens[pid] / self.avg if self.avg > 0 else 0.0
        norm = self.k1 * (1.0 - self.b + self.b * rel)
        return self.idf(term) * (tf * (self.k1 + 1.0)) / (tf + norm)

    def score_all(self, weights: dict[str, float]) -> dict[str, float]:
        """Exhaustively score every document; term iteration is sorted so
        float accumulation order matches a deterministic ranking check."""
        scores = {}
        for pid in self.docs:
            s = 0.0
            for term in sorted(weights):
                s += weights[term] * self.term_score(term, pid)
            if s > 0.0:
                scores[pid] = s
        return scores

    def top_n(self, weights: dict[str, float], n: int):
        scores = self.score_all(weights)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def retrieve(self, question: str, n: int):
        counts = Counter(oracle_tokens(question, self.stopwords))
        return self.top_n({t: float(c) for t, c in counts.items()}, n)

    def retrieve_weighted(self, weights: dict[str, float], n: int):
        positive = {t: w for t, w in weights.items() if w > 0.0}
        if not positive:
            return []
        total = sum(positive.values())
        return self.top_n({t: w / total for t, w in positive.items()}, n)


def make_random_corpus(rng, max_docs: int = 50, vocab=None,
                       stopword_rate: float = 0.2):
    """Random paragraphs plus the stopword set used with them."""
    if vocab is None:
        vocab = ["cat", "dog", "bird", "fish", "ran", "sat", "hill", "tree",
                 "rain", "wind", "blue", "red", "tall", "fast", "stone"]
    stopwords = frozenset(w for w in vocab if rng.random() < stopword_rate)
    paragraphs = []
    n_docs = int(rng.integers(1, max_docs + 1))
    for i in range(n_docs):
        words = [vocab[int(rng.integers(len(vocab)))]
                 for _ in range(int(rng.integers(1, 41)))]
        title = (vocab[int(rng.integers(len(vocab)))]
                 if rng.random() < 0.5 else "")
        paragraphs.append(Paragraph(
            para_id=f"r{int(rng.integers(10_000)):05d}-{i}",
            article_id=f"a{i}", title=title, body=" ".join(words),
            position=0))
    return paragraphs, stopwords
