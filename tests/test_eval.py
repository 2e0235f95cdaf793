"""Answer metrics, recall definitions, question files, and the timing
protocol."""

import json
import threading

import numpy as np
import pytest

from mindstone.eval import (GoldRecord, contains_answer, convert_squad_v11,
                            exact_match, f1, jaccard, normalize_answer,
                            read_questions, recall_at, run_benchmark,
                            run_eval, strict_recall_at, topn_em,
                            write_questions)


class TestNormalizeAnswer:
    def test_examples(self):
        assert normalize_answer("The Cat!") == "cat"
        assert normalize_answer("a  an the") == ""
        assert normalize_answer("U.S.A.") == "usa"

    def test_golden_file(self, metrics_golden):
        for case in metrics_golden:
            assert normalize_answer(case["pred"]) == case["norm_pred"], case


class TestExactMatchAndF1:
    def test_examples(self):
        assert exact_match("The Cat", ["cat"]) == 1
        assert exact_match("cats", ["cat"]) == 0
        assert exact_match("", ["x"]) == 0
        assert f1("cat sat", ["the cat"]) == pytest.approx(2 / 3)
        assert f1("same words", ["same words"]) == 1.0
        assert f1("abc", ["xyz"]) == 0.0

    def test_golden_file(self, metrics_golden):
        for case in metrics_golden:
            em = exact_match(case["pred"], case["golds"])
            score = f1(case["pred"], case["golds"])
            num, den = case["f1"]
            assert em == case["em"], case
            assert abs(score - num / den) < 1e-15, case

    def test_f1_at_least_em_randomized(self):
        rng = np.random.default_rng(17)
        words = ["the", "cat", "sat", "mat", "a", "dog", "u.s.", "42"]
        for _ in range(500):
            pred = " ".join(words[int(rng.integers(len(words)))]
                            for _ in range(int(rng.integers(0, 5))))
            golds = [" ".join(words[int(rng.integers(len(words)))]
                              for _ in range(int(rng.integers(0, 5))))]
            assert f1(pred, golds) >= exact_match(pred, golds)


class TestRecall:
    TEXTS = ["the answer is here: paris", "irrelevant text", "paris again"]

    def test_lenient_examples(self):
        assert recall_at(self.TEXTS, ["Paris"], 1) == 1
        assert recall_at(["nope", "still no", "paris"], ["paris"], 2) == 0
        assert recall_at(self.TEXTS, ["paris"], 0) == 0

    def test_containment_is_normalized(self):
        assert contains_answer("The U.S.A. declared", ["usa"])
        assert not contains_answer("use a shim", ["usa"])
        assert not contains_answer("anything", ["a an the"])

    def test_strict_examples(self):
        gold = "the cat sat on the mat"
        assert strict_recall_at([gold], gold, 1, tau=1.0) == 1
        assert strict_recall_at(["dog runs fast"], gold, 1, tau=0.1) == 0

    def test_jaccard_hand_computed(self):
        # Hand-derived token-set Jaccard values (stopwords kept).
        cases = [
            ("cat sat", "cat sat", 1.0),                   # identical
            ("cat sat", "cat ran", 1 / 3),                 # {cat} / {cat,sat,ran}
            ("a b c d", "c d e f", 2 / 6),                 # {c,d} / 6
            ("the cat", "cat the cat", 1.0),               # sets equal
            ("x y z", "p q r", 0.0),                       # disjoint
        ]
        for a, b, expected in cases:
            assert jaccard(a, b) == pytest.approx(expected), (a, b)

    def test_strict_threshold_boundary(self):
        # 10 gold tokens, candidate shares 5 and adds 0: Jaccard = 0.5.
        gold = "t1 t2 t3 t4 t5 t6 t7 t8 t9 t10"
        cand = "t1 t2 t3 t4 t5"
        assert jaccard(cand, gold) == pytest.approx(0.5)
        assert strict_recall_at([cand], gold, 1, tau=0.5) == 1
        assert strict_recall_at([cand], gold, 1, tau=0.51) == 0

    def test_monotone_in_n(self):
        rng = np.random.default_rng(23)
        words = ["paris", "rome", "cairo", "x", "y"]
        for _ in range(100):
            texts = [" ".join(words[int(rng.integers(len(words)))]
                              for _ in range(3)) for _ in range(8)]
            golds = ["paris"]
            values = [recall_at(texts, golds, n) for n in range(9)]
            assert values == sorted(values)


class TestTopnEm:
    def test_examples(self):
        answers = ["wrong one", "also wrong", "Paris"]
        assert topn_em(answers, ["paris"], 2) == 0
        assert topn_em(answers, ["paris"], 3) == 1
        assert topn_em(answers, ["paris"], 50) == 1
        assert topn_em([], ["paris"], 3) == 0


class TestQuestionFiles:
    def test_roundtrip_and_malformed_skipping(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(
            '{"qid": "1", "question": "q?", "answers": ["a"]}\n'
            'not json\n'
            '{"qid": "2", "question": "q2?", "answers": []}\n'
            '{"qid": "3", "question": "q3?", "answers": ["b"],'
            ' "gold_article_id": "art", "gold_paragraph": "para"}\n',
            encoding="utf-8")
        records, skipped = read_questions(path)
        assert [r.qid for r in records] == ["1", "3"]
        assert skipped == 2
        assert records[1].gold_paragraph == "para"

        out = tmp_path / "out.jsonl"
        write_questions(records, out)
        again, skipped2 = read_questions(out)
        assert again == records and skipped2 == 0

    def test_gold_answers_required(self):
        with pytest.raises(ValueError):
            GoldRecord(qid="1", question="q", gold_answers=())

    def test_squad_converter(self, tmp_path):
        squad = {"data": [{
            "title": "Oxygen",
            "paragraphs": [
                {"context": "Oxygen was discovered in 1774.",
                 "qas": [{"id": "q1", "question": "When was it discovered?",
                          "answers": [{"text": "1774", "answer_start": 25},
                                      {"text": "1774", "answer_start": 25}]}]},
                {"context": "It is a gas.",
                 "qas": [{"id": "q2", "question": "What is it?",
                          "answers": [{"text": "a gas", "answer_start": 6}]}]},
            ]}]}
        path = tmp_path / "squad.json"
        path.write_text(json.dumps(squad), encoding="utf-8")
        articles, records = convert_squad_v11(path)
        assert len(articles) == 1
        assert articles[0].body == ("Oxygen was discovered in 1774."
                                    "\n\nIt is a gas.")
        assert [r.qid for r in records] == ["q1", "q2"]
        assert records[0].gold_answers == ("1774",)  # deduplicated
        assert records[0].gold_paragraph == "Oxygen was discovered in 1774."
        assert records[0].gold_article_id == "Oxygen"


class TestRunEval:
    def test_oracle_everything_scores_perfectly(self):
        """A pipeline whose reader always lands the gold span gives
        em = f1 = 1.0 by construction."""
        from mindstone.corpus import Paragraph
        from mindstone.index import InvertedIndex
        from mindstone.pipeline import Pipeline, PipelineConfig

        golds = {"what is the code word": "zephyr",
                 "what is the other code": "quill"}
        paras = {p.para_id: p for p in [
            Paragraph("a#0", "a", "Codes", "the code word is zephyr", 0),
            Paragraph("b#0", "b", "Codes", "the other code is quill", 0),
        ]}
        index = InvertedIndex.build(paras.values())

        class OracleReader:
            def read_text(self, question, text, k):
                answer = golds[question]
                pos = text.find(answer)
                if pos < 0:
                    return [(0, len(text), 0.0)]
                return [(pos, pos + len(answer), 1.0)]

        class OneRanker:
            def rank_text(self, question, text):
                return 1.0

        records = [GoldRecord(f"q{i}", q, (a,))
                   for i, (q, a) in enumerate(golds.items())]
        pipe = Pipeline(index, paras, OneRanker(), OracleReader(),
                        PipelineConfig(n_retriever=2, n_reader=2))
        report, curves = run_eval(records, pipe, [1, 2])
        assert report.em == 1.0
        assert report.f1 == 1.0
        assert report.recall_at[1] == 1.0
        assert curves[0].topn_em == 1.0

    def test_empty_question_set_rejected(self, f2_index, f2_paragraphs,
                                         trained_ranker, f2_reader):
        from mindstone.pipeline import Pipeline
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader)
        with pytest.raises(ValueError):
            run_eval([], pipe, [1])


class TestRunBenchmark:
    def test_min_of_run_means_protocol(self, f2_index, f2_paragraphs,
                                       f2_records, trained_ranker,
                                       f2_reader):
        from mindstone.pipeline import Pipeline, PipelineConfig
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=20))
        report = run_benchmark(f2_records[:20], pipe, runs=3,
                               queries_per_run=10)
        assert report.runs == 3
        assert report.queries_per_run == 10
        assert len(report.per_run_mean_ms) == 3
        assert report.reported_ms == min(report.per_run_mean_ms)
        total = sum(report.stage_breakdown_ms.values())
        assert total == pytest.approx(report.reported_ms, rel=0.05)

    def test_single_run(self, f2_index, f2_paragraphs, f2_records,
                        trained_ranker, f2_reader):
        from mindstone.pipeline import Pipeline, PipelineConfig
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=10))
        report = run_benchmark(f2_records[:5], pipe, runs=1)
        assert report.reported_ms == report.per_run_mean_ms[0]
        assert report.queries_per_run == 5

    def test_pool_stages_are_timed_on_the_calling_thread(self, f2_index,
                                                         f2_paragraphs,
                                                         f2_records,
                                                         f2_reader):
        from mindstone.pipeline import Pipeline, PipelineConfig
        from mindstone.scorers.external import ScorerPool

        class InProcessPool(ScorerPool):
            """A ScorerPool (so answer_batch would fan out) that scores in
            process and notes the calling threads."""

            def __init__(self):
                super().__init__(["unused"], "rank")
                self.threads = set()

            def rank_text(self, question, text):
                self.threads.add(threading.get_ident())
                return 1.0

        pool = InProcessPool()
        pipe = Pipeline(f2_index, f2_paragraphs, pool, f2_reader,
                        PipelineConfig(n_retriever=10))
        report = run_benchmark(f2_records[:8], pipe, runs=2)
        assert pool.threads == {threading.get_ident()}
        assert report.queries_per_run == 8
        assert "workers" not in report.to_dict()

    def test_rejects_bad_args(self, f2_index, f2_paragraphs, trained_ranker,
                              f2_reader):
        from mindstone.pipeline import Pipeline
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader)
        with pytest.raises(ValueError):
            run_benchmark([], pipe, runs=2)
