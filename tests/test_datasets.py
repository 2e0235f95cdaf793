"""Ranker-dataset builders: paired gold/non-gold, retrieval-labeled, and
retrieve-rerank variants."""

import inspect
import re
import string

import numpy as np
import pytest

from mindstone.corpus import Paragraph, read_records, write_records
from mindstone.errors import StageError
from mindstone.eval import GoldRecord
from mindstone.scorers import RankExample
from mindstone.scorers.datasets import (build_dataset_aug1,
                                        build_dataset_aug2,
                                        build_dataset_finetune,
                                        resolve_gold_paragraph)


def independent_contains(text: str, answers) -> bool:
    """Containment re-check sharing no code with the implementation."""
    def norm(s):
        s = s.lower()
        s = "".join(c for c in s if c not in string.punctuation)
        s = re.sub(r"\b(a|an|the)\b", " ", s)
        return " ".join(s.split())
    hay = norm(text)
    return any(norm(ans) and norm(ans) in hay for ans in answers)


class ConstantScorer:
    def rank_pool(self, question, para_ids, texts):
        return [0.0] * len(texts)


class RetrievalOrderScorer:
    """Scores each paragraph by its (descending) first-pass retrieval rank,
    so reranking reproduces the retrieval order."""

    def __init__(self, index, n):
        self.index = index
        self.n = n
        self._orders = {}

    def order_for(self, question):
        if question not in self._orders:
            hits = self.index.retrieve(question, self.n).hits
            self._orders[question] = {}
            for rank_pos, (pid, _) in enumerate(hits):
                self._orders[question][pid] = rank_pos
        return self._orders[question]


class TestFinetune:
    @staticmethod
    def _mini_corpus():
        paras = [
            Paragraph("art#0", "art", "Art", "paris is the capital", 0),
            Paragraph("art#1", "art", "Art", "nothing about cities", 1),
            Paragraph("solo#0", "solo", "Solo", "rome is the capital", 0),
        ]
        records = [
            GoldRecord("q1", "what is the capital", ("paris",),
                       gold_article_id="art",
                       gold_paragraph="paris is the capital"),
            GoldRecord("q2", "what is the capital of solo", ("rome",),
                       gold_article_id="solo",
                       gold_paragraph="rome is the capital"),
        ]
        return paras, records

    def test_positive_plus_answer_free_negative(self):
        paras, records = self._mini_corpus()
        out = build_dataset_finetune(records[:1], paras)
        assert [(ex.para_id, ex.label) for ex in out] == \
            [("art#0", 1), ("art#1", 0)]

    def test_single_paragraph_article_has_no_negative(self):
        paras, records = self._mini_corpus()
        out = build_dataset_finetune(records[1:], paras)
        assert [(ex.para_id, ex.label) for ex in out] == [("solo#0", 1)]

    def test_negative_must_lack_every_gold_answer(self):
        paras = [
            Paragraph("a#0", "a", "", "paris is the capital", 0),
            Paragraph("a#1", "a", "", "some say Paris, some say rome", 1),
            Paragraph("a#2", "a", "", "unrelated content", 2),
        ]
        record = GoldRecord("q", "capital?", ("paris", "rome"),
                            gold_article_id="a",
                            gold_paragraph="paris is the capital")
        out = build_dataset_finetune([record], paras)
        # a#1 contains both gold strings, so the negative must be a#2.
        assert [(ex.para_id, ex.label) for ex in out] == \
            [("a#0", 1), ("a#2", 0)]

    def test_inexact_gold_paragraph_resolves_by_jaccard(self):
        # No body equals the annotation, so the highest token-set Jaccard
        # wins, and of a#1 and a#3 (equal Jaccard) the earlier position.
        paras = [
            Paragraph("a#0", "a", "", "rome is a city", 0),
            Paragraph("a#3", "a", "", "paris is the capital", 3),
            Paragraph("a#1", "a", "", "the capital is paris", 1),
            Paragraph("a#2", "a", "", "nothing here", 2),
        ]
        record = GoldRecord("q", "capital?", ("paris",),
                            gold_article_id="a",
                            gold_paragraph="Paris is the capital of France")
        assert resolve_gold_paragraph(record, paras).para_id == "a#1"
        out = build_dataset_finetune([record], paras)
        assert [(ex.para_id, ex.label) for ex in out] == \
            [("a#1", 1), ("a#0", 0)]

    def test_fixture_counts(self, f2_records, f2_paragraphs):
        out = build_dataset_finetune(f2_records, f2_paragraphs.values())
        positives = [ex for ex in out if ex.label == 1]
        negatives = [ex for ex in out if ex.label == 0]
        assert len(positives) == len(f2_records)
        assert len(negatives) <= len(positives)
        for ex in out:
            record = next(r for r in f2_records if r.question == ex.question)
            assert independent_contains(ex.text, record.gold_answers) == \
                bool(ex.label)


class TestAug1:
    def test_labels_by_containment(self, f2_index, f2_paragraphs,
                                   f2_records):
        out = build_dataset_aug1(f2_records[:30], f2_index, f2_paragraphs,
                                 n=5)
        assert len(out) == 30 * 5
        by_q = {}
        for ex in out:
            by_q.setdefault(ex.question, []).append(ex)
            record = next(r for r in f2_records if r.question == ex.question)
            assert independent_contains(ex.text, record.gold_answers) == \
                bool(ex.label)
        assert all(len(v) == 5 for v in by_q.values())

    def test_unfindable_answer_gives_all_zeros(self, f2_index,
                                               f2_paragraphs):
        record = GoldRecord("qx", "what was the height of mount ardenfell",
                            ("zzyzzx nonexistent",))
        out = build_dataset_aug1([record], f2_index, f2_paragraphs, n=5)
        assert out and all(ex.label == 0 for ex in out)

    def test_default_n_is_5(self):
        assert inspect.signature(build_dataset_aug1).parameters["n"].default == 5


class TestAug2:
    def test_defaults_m100_n5(self):
        params = inspect.signature(build_dataset_aug2).parameters
        assert params["m"].default == 100
        assert params["n"].default == 5

    def test_m_less_than_n_rejected(self, f2_index, f2_paragraphs,
                                    f2_records):
        with pytest.raises(ValueError):
            build_dataset_aug2(f2_records[:1], f2_index, f2_paragraphs,
                               ConstantScorer(), m=3, n=5)

    def test_order_preserving_scorer_reduces_to_aug1(self, f2_index,
                                                     f2_paragraphs,
                                                     f2_records):
        records = f2_records[:15]
        # Score = -retrieval rank, recovered per (question, paragraph text).
        order = RetrievalOrderScorer(f2_index, 100)
        text_to_pid = {p.full_text: pid for pid, p in f2_paragraphs.items()}

        class OrderScorer:
            def rank_pool(self, question, para_ids, texts):
                ranks = order.order_for(question)
                return [-float(ranks[text_to_pid[text]]) for text in texts]

        got = build_dataset_aug2(records, f2_index, f2_paragraphs,
                                 OrderScorer(), m=100, n=5)
        expected = build_dataset_aug1(records, f2_index, f2_paragraphs, n=5)
        assert got == expected

    @pytest.mark.parametrize("extra", [-1, 1, None])
    def test_ranker_fault_is_rank_stage_error(self, f2_index, f2_paragraphs,
                                              f2_records, extra):
        class FaultyRanker:
            """Scores one too few or too many, or raises (extra None)."""
            def rank_pool(self, question, para_ids, texts):
                if extra is None:
                    raise RuntimeError("model exploded")
                return np.zeros(len(para_ids) + extra)

        n = len(f2_index.retrieve(f2_records[0].question, 100).hits)
        message = ("model exploded" if extra is None else
                   rf"ranker returned scores of shape \({n + extra},\) for "
                   rf"{n} paragraphs")
        with pytest.raises(StageError, match=rf"^\[rank\] {message}$"):
            build_dataset_aug2(f2_records[:1], f2_index, f2_paragraphs,
                               FaultyRanker(), m=100, n=5)

    @pytest.mark.parametrize("build", [
        lambda *args: build_dataset_aug1(*args, n=5),
        lambda *args: build_dataset_aug2(*args, ConstantScorer(), m=10, n=5),
    ], ids=["aug1", "aug2"])
    def test_missing_paragraph_is_named(self, f2_index, f2_paragraphs,
                                        f2_records, build):
        missing = f2_index.retrieve(f2_records[0].question, 5).para_ids()[-1]
        partial = {pid: p for pid, p in f2_paragraphs.items()
                   if pid != missing}
        with pytest.raises(ValueError, match=rf"^paragraphs: no paragraph "
                           rf"text for '{re.escape(missing)}'$"):
            build(f2_records[:1], f2_index, partial)

    def test_oracle_ranker_front_loads_positives(self, f2_index,
                                                 f2_paragraphs, f2_records,
                                                 oracle_ranker):
        records = f2_records[:40]
        aug2 = build_dataset_aug2(records, f2_index, f2_paragraphs,
                                  oracle_ranker, m=100, n=5)
        aug1 = build_dataset_aug1(records, f2_index, f2_paragraphs, n=5)
        frac2 = sum(ex.label for ex in aug2) / len(aug2)
        frac1 = sum(ex.label for ex in aug1) / len(aug1)
        assert frac2 >= frac1
        # With the oracle, per-question positives come before negatives.
        by_q = {}
        for ex in aug2:
            by_q.setdefault(ex.question, []).append(ex.label)
        for labels in by_q.values():
            assert labels == sorted(labels, reverse=True)


class TestDatasetFile:
    def test_roundtrip(self, tmp_path):
        examples = [RankExample("q?", "p#0", "some text", 1),
                    RankExample("q?", "p#1", "more text", 0)]
        path = tmp_path / "data.jsonl"
        assert write_records(examples, path) == 2
        assert list(read_records(RankExample, path)) == examples

    def test_label_validated(self):
        with pytest.raises(ValueError):
            RankExample("q", "p", "t", 2)
