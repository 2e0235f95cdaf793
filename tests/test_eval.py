"""Answer metrics, recall definitions, question files, and the timing
protocol."""

import dataclasses
import json
import re
import string
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindstone.corpus import Paragraph
from mindstone.eval import (CurvePoint, EvalReport, GoldRecord, _mean,
                            contains_answer, convert_squad_v11, exact_match,
                            f1, first_hit, jaccard, log_failed_questions,
                            normalize_answer, read_questions, run_benchmark,
                            run_eval, write_questions)
from mindstone.pipeline import PipelineResult, RankedAnswer, StageTrace


# -- per-cutoff definitions: the oracle of run_eval's first-hit positions --

def recall_at(candidate_texts, golds, n):
    """1 iff any of the first n candidate texts contains a gold answer."""
    return int(any(contains_answer(t, golds) for t in candidate_texts[:n]))


def strict_recall_at(candidate_texts, gold_paragraph, n, tau=0.5):
    """1 iff any of the first n candidates is (near-)identical to the
    annotated source paragraph: token-set Jaccard >= tau."""
    return int(any(jaccard(t, gold_paragraph) >= tau
                   for t in candidate_texts[:n]))


def topn_em(answer_texts, golds, n):
    """1 iff any of the first n (deduplicated) answers is an exact match."""
    return int(any(exact_match(a, golds) for a in answer_texts[:n]))


def _loop_run_eval(records, pipeline, n_grid, tau=0.5, malformed_skipped=0):
    """run_eval with one prefix rescan per (list, cutoff) through the three
    helpers above: the oracle that the first-hit version must equal."""
    if not records:
        raise ValueError("empty question set")
    n_grid = sorted(set(int(n) for n in n_grid))
    results = pipeline.answer_batch([r.question for r in records])
    log_failed_questions([r.qid for r in records], results)
    paragraphs = pipeline.paragraphs

    em_vals, f1_vals = [], []
    retr_hits = {n: [] for n in n_grid}
    rank_hits = {n: [] for n in n_grid}
    strict_retr_hits = {n: [] for n in n_grid}
    strict_rank_hits = {n: [] for n in n_grid}
    topn_hits = {n: [] for n in n_grid}
    strict_excluded = 0

    for record, result in zip(records, results):
        golds = list(record.gold_answers)
        top_pred = result.answers[0].answer_text if result.answers else ""
        em_vals.append(exact_match(top_pred, golds))
        f1_vals.append(f1(top_pred, golds))

        retrieved_texts = [paragraphs[pid].full_text
                           for pid, _ in result.retrieved]
        ranked_texts = [paragraphs[pid].full_text for pid, _ in result.ranked]
        answer_texts = [a.answer_text for a in result.answers]
        has_gold_para = record.gold_paragraph is not None
        if not has_gold_para:
            strict_excluded += 1
        for n in n_grid:
            retr_hits[n].append(recall_at(retrieved_texts, golds, n))
            rank_hits[n].append(recall_at(ranked_texts, golds, n))
            topn_hits[n].append(topn_em(answer_texts, golds, n))
            if has_gold_para:
                strict_retr_hits[n].append(strict_recall_at(
                    retrieved_texts, record.gold_paragraph, n, tau))
                strict_rank_hits[n].append(strict_recall_at(
                    ranked_texts, record.gold_paragraph, n, tau))

    report = EvalReport(
        em=_mean(em_vals),
        f1=_mean(f1_vals),
        recall_at={n: _mean(retr_hits[n]) for n in n_grid},
        strict_recall_at={n: _mean(strict_retr_hits[n]) for n in n_grid},
        topn_em={n: _mean(topn_hits[n]) for n in n_grid},
        n_questions=len(records),
        strict_excluded=strict_excluded,
        malformed_skipped=malformed_skipped,
    )
    curves = [CurvePoint(
        n=n,
        retriever_recall=_mean(retr_hits[n]),
        ranker_recall=_mean(rank_hits[n]),
        strict_retriever_recall=_mean(strict_retr_hits[n]),
        strict_ranker_recall=_mean(strict_rank_hits[n]),
        topn_em=_mean(topn_hits[n]),
    ) for n in n_grid]
    return report, curves


_ASCII_PUNCT = set(string.punctuation)


def _loop_normalize_answer(s: str) -> str:
    """The per-character SQuAD normalization that ``normalize_answer``'s
    translate table replaced: the oracle it must equal."""
    s = s.lower()
    s = "".join(ch for ch in s if ch not in _ASCII_PUNCT)
    s = re.sub(r"\b(a|an|the)\b", " ", s)
    return " ".join(s.split())


# Letters, articles, ASCII and non-ASCII punctuation, and whitespace, so
# drawn texts exercise every step of the normalization.
_ANSWER_PIECES = st.sampled_from(
    ["a", "an", "the", "The", "Cat", "U.S.", "İ", "ß", "e\u0301", " ", "\t",
     "\u00a0", *string.punctuation, *"‘’—¿«»…"])


class TestNormalizeAnswer:
    def test_examples(self):
        assert normalize_answer("The Cat!") == "cat"
        assert normalize_answer("a  an the") == ""
        assert normalize_answer("U.S.A.") == "usa"
        # string.punctuation is ASCII only: typographic quotes and dashes
        # are kept, as SQuAD's own script keeps them.
        assert (normalize_answer("‘The’ cat—¿or «a» dog?")
                == "‘ ’ cat—¿or « » dog")

    def test_golden_file(self, metrics_golden):
        for case in metrics_golden:
            assert normalize_answer(case["pred"]) == case["norm_pred"], case

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.lists(_ANSWER_PIECES).map("".join)))
    def test_equals_per_character_oracle(self, text):
        assert normalize_answer(text) == _loop_normalize_answer(text)


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


_QUESTION_RECORDS = st.builds(
    GoldRecord, st.text(), st.text(),
    st.lists(st.text(), min_size=1, max_size=3).map(tuple),
    st.none() | st.text(), st.none() | st.text())
# The JSON types a question record's fields may hold.
_QUESTION_FIELD_TYPES = {
    "qid": lambda v: type(v) in (str, int),
    "question": lambda v: type(v) is str,
    "answers": lambda v: (type(v) is list and len(v) > 0
                          and all(type(a) is str for a in v)),
    "gold_article_id": lambda v: v is None or type(v) is str,
    "gold_paragraph": lambda v: v is None or type(v) is str,
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8)


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

    def test_mistyped_records_are_skipped(self, tmp_path):
        good = {"qid": "q", "question": "q?", "answers": ["a"]}
        lines = [{**good, "qid": 7}] + [{**good, **bad} for bad in [
            {"question": 5}, {"answers": "abc"}, {"answers": ["a", 1]},
            {"gold_paragraph": 7}, {"gold_article_id": ["art"]},
            {"qid": True}, {"qid": 1.5}, {"qid": None}]]
        path = tmp_path / "q.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in lines),
                        encoding="utf-8")
        assert read_questions(path) == ([GoldRecord("7", "q?", ("a",))], 8)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_QUESTION_RECORDS, min_size=1, max_size=4), st.data())
    def test_mutated_line_reads_same_or_is_skipped(self, tmp_path_factory,
                                                   records, data):
        """One line replaced by arbitrary text, a JSON value that is not
        an object, the record without a required field or with a field of
        the wrong JSON type, or the record with extra keys in any order:
        the other records read back the same, and the mutated one reads
        back the same (extra keys) or is counted as skipped."""
        path = tmp_path_factory.mktemp("questions") / "q.jsonl"
        write_questions(records, path)
        lines = path.read_text("utf-8").split("\n")[:-1]
        i = data.draw(st.integers(0, len(records) - 1))
        rec = json.loads(lines[i])
        mutation = data.draw(st.sampled_from(
            ["text", "non-object", "missing", "retyped", "extra"]))
        if mutation == "text":
            chars = st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\r\n")
            lines[i] = data.draw(st.text(chars).filter(
                lambda t: t.strip() and not t.strip().startswith("{")))
        elif mutation == "non-object":
            lines[i] = json.dumps(data.draw(_JSON_VALUES.filter(
                lambda v: not isinstance(v, dict))))
        elif mutation == "missing":
            del rec[data.draw(st.sampled_from(["qid", "question",
                                               "answers"]))]
            lines[i] = json.dumps(rec, ensure_ascii=False)
        elif mutation == "retyped":
            name = data.draw(st.sampled_from(list(_QUESTION_FIELD_TYPES)))
            rec[name] = data.draw(_JSON_VALUES.filter(
                lambda v: not _QUESTION_FIELD_TYPES[name](v)))
            lines[i] = json.dumps(rec, ensure_ascii=False)
        else:
            extra = data.draw(st.dictionaries(
                st.text().filter(lambda k: k not in _QUESTION_FIELD_TYPES),
                _JSON_VALUES, min_size=1, max_size=3))
            items = data.draw(st.permutations(list({**rec, **extra}.items())))
            lines[i] = json.dumps(dict(items), ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got, skipped = read_questions(path)
        if mutation == "extra":
            assert (got, skipped) == (records, 0)
        else:
            assert (got, skipped) == (records[:i] + records[i + 1:], 1)

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


class _StubPipeline:
    """Hands run_eval a fixed result list and paragraph store."""

    def __init__(self, paragraphs, results):
        self.paragraphs = paragraphs
        self.results = results

    def answer_batch(self, questions):
        assert len(questions) == len(self.results)
        return self.results


_WORDS = ["paris", "rome", "the", "x", "y"]
_PHRASES = st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join)


@st.composite
def _eval_case(draw):
    """Records, a stub pipeline, a cutoff grid and tau. Texts come from five
    words so containment, Jaccard and exact-match hits land anywhere in a
    list; grids repeat cutoffs and reach past every list."""
    texts = draw(st.lists(_PHRASES, min_size=1, max_size=6))
    paragraphs = {f"p{i}": Paragraph(f"p{i}", "a", "", text, i)
                  for i, text in enumerate(texts)}
    pids = st.sampled_from(sorted(paragraphs))
    hits = st.lists(st.tuples(pids, st.floats(-5, 5)), max_size=8)
    records, results = [], []
    for i in range(draw(st.integers(1, 6))):
        gold_para = draw(st.none() | st.sampled_from(texts) | _PHRASES)
        records.append(GoldRecord(
            f"q{i}", f"question {i}",
            tuple(draw(st.lists(_PHRASES, min_size=1, max_size=2))),
            gold_paragraph=gold_para))
        if draw(st.integers(0, 3)) == 0:  # a failed question
            results.append(PipelineResult([], StageTrace(), [], [],
                                          error="[read] failed"))
            continue
        answers = [RankedAnswer(text, "p0", 0, 1, 0.0, 0.0, 0.0, 0.0)
                   for text in draw(st.lists(_PHRASES, max_size=6))]
        results.append(PipelineResult(answers, StageTrace(), draw(hits),
                                      draw(hits)))
    grid = draw(st.lists(st.integers(1, 12), max_size=6))
    tau = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return records, _StubPipeline(paragraphs, results), grid, tau


class TestFirstHitOracle:
    @settings(max_examples=300, deadline=None)
    @given(_eval_case())
    def test_first_hit_curves_equal_per_cutoff_loop(self, case):
        records, pipeline, grid, tau = case
        report, curves = run_eval(records, pipeline, grid, tau=tau,
                                  malformed_skipped=2)
        want_report, want_curves = _loop_run_eval(records, pipeline, grid,
                                                  tau=tau,
                                                  malformed_skipped=2)
        assert report.to_dict() == want_report.to_dict()
        assert curves == want_curves

    def test_first_hit_examples(self):
        def is_paris(t):
            return t == "paris"

        assert first_hit(["x", "paris", "paris"], is_paris, 5) == 1
        assert first_hit(["x", "paris"], is_paris, 1) == 1  # scan stops
        assert first_hit(["x"], is_paris, 5) == 5
        assert first_hit([], is_paris, 0) == 0

    @pytest.mark.parametrize("grid", [[-1], [0], [5, 0, -1]])
    def test_cutoff_below_one_rejected(self, grid):
        # texts[:-1] would read "all but the last": a cutoff < 1 is refused.
        records = [GoldRecord("q0", "q", ("paris",))]
        pipeline = _StubPipeline({}, [PipelineResult([], StageTrace(), [],
                                                     [])])
        bad = next(n for n in grid if n < 1)
        with pytest.raises(ValueError, match=f"cutoff {bad} "):
            run_eval(records, pipeline, grid)

    def test_empty_grid_gives_empty_curves(self):
        records = [GoldRecord("q0", "q", ("paris",))]
        pipeline = _StubPipeline({}, [PipelineResult([], StageTrace(), [],
                                                     [])])
        report, curves = run_eval(records, pipeline, [])
        assert curves == []
        assert report.recall_at == report.topn_em == {}


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
            def read_pool(self, question, para_ids, texts, k):
                answer = golds[question]
                return [[(pos, pos + len(answer), 1.0)]
                        if (pos := text.find(answer)) >= 0
                        else [(0, len(text), 0.0)] for text in texts]

        class OneRanker:
            def rank_pool(self, question, para_ids, texts):
                return [1.0] * len(texts)

        records = [GoldRecord(f"q{i}", q, (a,))
                   for i, (q, a) in enumerate(golds.items())]
        pipe = Pipeline(index, paras, OneRanker(), OracleReader(),
                        PipelineConfig(n_retriever=2, n_reader=2))
        report, curves = run_eval(records, pipe, [1, 2])
        assert report.em == 1.0
        assert report.f1 == 1.0
        assert report.recall_at[1] == 1.0
        assert curves[0].topn_em == 1.0

    def test_failed_questions_are_logged(self, f2_index, f2_paragraphs,
                                         f2_records, trained_ranker,
                                         caplog):
        from mindstone.errors import StageError
        from mindstone.pipeline import Pipeline, PipelineConfig

        class FailingReader:
            def read_pool(self, question, para_ids, texts, k):
                raise StageError("read", "reader crashed")

        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker,
                        FailingReader(), PipelineConfig(n_retriever=5))
        records = f2_records[:3]
        with caplog.at_level("WARNING", logger="mindstone"):
            report, _ = run_eval(records, pipe, [1])
        assert report.em == 0.0
        warnings = [r for r in caplog.records
                    if r.name == "mindstone" and r.levelname == "WARNING"]
        assert [r.getMessage() for r in warnings] == [
            f"question {r.qid} failed: [read] reader crashed"
            for r in records]

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

    def test_stage_spread_next_to_breakdown(self, f2_index, f2_paragraphs,
                                            f2_records, trained_ranker,
                                            f2_reader):
        from mindstone.pipeline import Pipeline, PipelineConfig
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=20))
        report = run_benchmark(f2_records[:20], pipe, runs=2)
        assert set(report.stage_spread_ms) == set(report.stage_breakdown_ms)
        for stage, spread in report.stage_spread_ms.items():
            assert set(spread) == {"p50", "p95", "max"}
            assert 0.0 <= spread["p50"] <= spread["p95"] <= spread["max"]
            # The breakdown is the same run's mean over the same questions.
            assert report.stage_breakdown_ms[stage] <= spread["max"]
        assert (dataclasses.asdict(report)["stage_spread_ms"]
                == report.stage_spread_ms)

    def test_single_run(self, f2_index, f2_paragraphs, f2_records,
                        trained_ranker, f2_reader):
        from mindstone.pipeline import Pipeline, PipelineConfig
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=10))
        report = run_benchmark(f2_records[:5], pipe, runs=1)
        assert report.reported_ms == report.per_run_mean_ms[0]
        assert report.queries_per_run == 5

    def test_failed_questions_logged_once_per_timed_run(self, f2_index,
                                                        f2_paragraphs,
                                                        f2_records,
                                                        trained_ranker,
                                                        caplog):
        from mindstone.errors import StageError
        from mindstone.pipeline import Pipeline, PipelineConfig

        records = f2_records[:4]
        failing = {records[1].question, records[3].question}

        class FailingReader:
            def read_pool(self, question, para_ids, texts, k):
                if question in failing:
                    raise StageError("read", "reader crashed")
                return [[(0, min(len(text), 5), 1.0)] for text in texts]

        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker,
                        FailingReader(), PipelineConfig(n_retriever=5))
        with caplog.at_level("WARNING", logger="mindstone"):
            run_benchmark(records, pipe, runs=2, queries_per_run=6)
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "mindstone" and r.levelname == "WARNING"]
        # Six questions wrap to records 0-3 then 0-1: three of them fail.
        assert warnings == [
            f"timed run {run}: 3 of 6 questions failed, first {records[1].qid}"
            for run in (1, 2)]

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

            def rank_pool(self, question, para_ids, texts):
                self.threads.add(threading.get_ident())
                return [1.0] * len(texts)

        pool = InProcessPool()
        pipe = Pipeline(f2_index, f2_paragraphs, pool, f2_reader,
                        PipelineConfig(n_retriever=10))
        report = run_benchmark(f2_records[:8], pipe, runs=2)
        assert pool.threads == {threading.get_ident()}
        assert report.queries_per_run == 8
        assert "workers" not in dataclasses.asdict(report)

    def test_rejects_bad_args(self, f2_index, f2_paragraphs, trained_ranker,
                              f2_reader):
        from mindstone.pipeline import Pipeline
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader)
        with pytest.raises(ValueError):
            run_benchmark([], pipe, runs=2)
