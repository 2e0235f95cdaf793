"""Cascade orchestration: stage flow, cutoffs, fusion ordering, batching."""

import json
import re
import threading

import pytest

from mindstone.corpus import Paragraph
from mindstone.errors import StageError
from mindstone.expansion import ExpansionParams
from mindstone.fusion import FusionWeights
from mindstone.index import InvertedIndex
from mindstone.pipeline import (Pipeline, PipelineConfig, answer_record,
                                dump_answer_line)
from mindstone.scorers import TruncationLimits


class ConstantRanker:
    def __init__(self, value=1.0):
        self.value = value

    def rank_text(self, question, text):
        return self.value


class GoldSpanReader:
    """Returns the known gold span for the paragraph it appears in."""

    def __init__(self, gold_text):
        self.gold_text = gold_text

    def read_text(self, question, text, k):
        pos = text.find(self.gold_text)
        if pos >= 0:
            return [(pos, pos + len(self.gold_text), 5.0)]
        return [(0, min(3, len(text)), 0.1)]


class TestConfig:
    def test_reader_cutoff_is_ceil_of_fraction(self):
        cfg = PipelineConfig(n_retriever=100, read_fraction=0.025)
        assert cfg.n_reader_effective == 3

    def test_reader_cutoff_floor_is_one(self):
        assert PipelineConfig(n_retriever=5,
                              read_fraction=0.025).n_reader_effective == 1

    def test_explicit_override(self):
        cfg = PipelineConfig(n_retriever=100, read_fraction=0.025,
                             n_reader=7)
        assert cfg.n_reader_effective == 7

    def test_round_trip_through_dict(self):
        cfg = PipelineConfig(n_retriever=40, read_fraction=0.1, n_reader=6,
                             rm3_enabled=True,
                             rm3=ExpansionParams(alpha=0.3, top_terms=9,
                                                 second_pass_n=17),
                             weights=FusionWeights(0.5, 0.25, 0.25),
                             k_spans_per_paragraph=2,
                             limits=TruncationLimits(ranker_para_tokens=100,
                                                     reader_total_tokens=50))
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize("data, key", [
        ({"n_retreiver": 20}, "'n_retreiver'"),
        ({"rm3": {"term": 5}}, "'rm3.term'"),
        ({"fusion": {"w_ranke": 1.0}}, "'fusion.w_ranke'"),
        ({"limits": {"x": 1}}, "'limits.x'"),
    ])
    def test_unknown_key_is_named(self, data, key):
        with pytest.raises(ValueError, match=f"unknown config key {key}"):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({"n_retriever": "20"}, "'n_retriever' must be an integer, got '20'"),
        ({"n_retriever": 5.5}, "'n_retriever' must be an integer, got 5.5"),
        ({"n_retriever": True}, "'n_retriever' must be an integer, got True"),
        ({"rm3": {"enabled": "yes"}},
         "'rm3.enabled' must be true or false, got 'yes'"),
        ({"rm3": {"enabled": 1}}, "'rm3.enabled' must be true or false"),
        ({"read_fraction": "0.1"}, "'read_fraction' must be a number"),
        ({"fusion": {"w_ranker": None}}, "'fusion.w_ranker' must be a number"),
        ({"n_reader": 2.0}, "'n_reader' must be an integer or null"),
        ({"rm3": {"second_pass_n": "5"}},
         "'rm3.second_pass_n' must be an integer or null"),
        ({"limits": {"reader_total_tokens": [384]}},
         "'limits.reader_total_tokens' must be an integer"),
    ])
    def test_wrong_value_type_is_named(self, data, message):
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"config key {message}")):
            PipelineConfig.from_dict(data)

    def test_accepted_value_types(self):
        cfg = PipelineConfig.from_dict({
            "n_reader": None, "read_fraction": 1,
            "rm3": {"enabled": True, "alpha": 1, "second_pass_n": None},
            "fusion": {"w_retriever": 1, "w_ranker": 0, "w_reader": 0.0}})
        assert cfg.read_fraction == 1 and cfg.rm3.alpha == 1
        assert cfg.n_reader is None and cfg.rm3.second_pass_n is None
        assert PipelineConfig.from_dict({"n_reader": 4}).n_reader == 4

    def test_overrides_replace_file_values(self):
        cfg = PipelineConfig.from_dict(
            {"n_retriever": 50, "fusion": {"w_retriever": 1.0,
                                           "w_ranker": 0.0,
                                           "w_reader": 0.0}},
            overrides={"n_retriever": 7, "rm3": None, "w_retriever": 0.5,
                       "w_reader": 0.5, "unrelated": 3})
        assert cfg.n_retriever == 7
        assert cfg.rm3_enabled is False
        assert cfg.weights == FusionWeights(0.5, 0.0, 0.5)

    def test_dict_uses_documented_keys(self):
        data = PipelineConfig().to_dict()
        assert set(data["rm3"]) == {"enabled", "alpha", "terms",
                                    "second_pass_n"}
        assert set(data["fusion"]) == {"w_retriever", "w_ranker", "w_reader"}

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(read_fraction=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(n_reader=0)


class TestAnswer:
    @staticmethod
    def _gold_corpus():
        paras = {p.para_id: p for p in [
            Paragraph("g#0", "g", "Topic", "the secret number is 4821 here", 0),
            Paragraph("g#1", "g", "Topic", "filler body with words", 1),
            Paragraph("h#0", "h", "Other", "unrelated body entirely", 0),
        ]}
        return InvertedIndex.build(paras.values()), paras

    def test_single_matching_paragraph_yields_gold_span(self):
        index, paras = self._gold_corpus()
        pipe = Pipeline(index, paras, ConstantRanker(),
                        GoldSpanReader("4821"),
                        PipelineConfig(n_retriever=3, n_reader=1))
        result = pipe.answer("what is the secret number")
        assert result.answers[0].answer_text == "4821"
        assert result.answers[0].para_id == "g#0"

    def test_empty_retrieval_is_valid(self):
        index, paras = self._gold_corpus()
        pipe = Pipeline(index, paras, ConstantRanker(), GoldSpanReader("x"))
        result = pipe.answer("zzz qqq vvv")
        assert result.answers == []
        assert result.retrieved == []

    def test_answer_text_matches_full_text_slice(self, f2_index,
                                                 f2_paragraphs,
                                                 trained_ranker, f2_reader,
                                                 f2_records):
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=20))
        for record in f2_records[:15]:
            for ans in pipe.answer(record.question).answers:
                full = f2_paragraphs[ans.para_id].full_text
                assert full[ans.start_char:ans.end_char] == ans.answer_text

    def test_answers_sorted_and_deduplicated(self, f2_index, f2_paragraphs,
                                             trained_ranker, f2_reader,
                                             f2_records):
        from mindstone.eval import normalize_answer
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=20, n_reader=5,
                                       k_spans_per_paragraph=2))
        for record in f2_records[:10]:
            answers = pipe.answer(record.question).answers
            fused = [a.fused for a in answers]
            assert fused == sorted(fused, reverse=True)
            keys = [normalize_answer(a.answer_text) for a in answers]
            assert len(keys) == len(set(keys))

    def test_retriever_only_weights_follow_retrieval(self, f2_index,
                                                     f2_paragraphs,
                                                     trained_ranker,
                                                     f2_reader, f2_records):
        """With weights (1,0,0), the top answer must come from the read
        paragraph with the highest retrieval score."""
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=20, n_reader=3,
                                       weights=FusionWeights(1, 0, 0)))
        for record in f2_records[:40]:
            result = pipe.answer(record.question)
            retrieval_rank = {pid: i for i, (pid, _) in
                              enumerate(result.retrieved)}
            read_ids = {c.para_id for c in result.candidates}
            best = min(read_ids, key=lambda pid: retrieval_rank[pid])
            assert result.answers[0].para_id == best

    def test_rm3_pass_candidates_have_zero_retriever_score(
            self, f2_index, f2_paragraphs, oracle_ranker, f2_reader,
            f2_records):
        pipe = Pipeline(f2_index, f2_paragraphs, oracle_ranker, f2_reader,
                        PipelineConfig(n_retriever=10, rm3_enabled=True))
        result = pipe.answer(f2_records[0].question)
        assert result.trace.counts["rm3_added"] > 0
        first_pass = {pid for pid, _ in result.retrieved}
        rm3_scores = [s for pid, s in result.ranked if pid not in first_pass]
        candidates = {c.para_id: c for c in result.candidates}
        for pid in candidates:
            if pid not in first_pass:
                assert candidates[pid].s_retriever == 0.0
        assert rm3_scores, "second pass added nothing"

    def test_rm3_disabled_records_zero_additions(self, f2_index,
                                                 f2_paragraphs,
                                                 trained_ranker, f2_reader):
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=10))
        result = pipe.answer("what was the height of mount ardenfell")
        assert result.trace.counts["rm3_added"] == 0

    def test_read_set_prefix_property(self, f2_index, f2_paragraphs,
                                      trained_ranker, f2_reader,
                                      f2_records):
        """Growing n_retriever only removes a read candidate when a higher
        ranker score displaces it."""
        def read_set(n):
            pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker,
                            f2_reader,
                            PipelineConfig(n_retriever=n, n_reader=3))
            result = pipe.answer(question)
            return {pid: s for pid, s in result.ranked[:3]}

        for record in f2_records[:10]:
            question = record.question
            small, large = read_set(10), read_set(40)
            floor = min(large.values())
            for pid, score in small.items():
                assert pid in large or floor >= score

    def test_stage_trace_counts(self, f2_index, f2_paragraphs,
                                trained_ranker, f2_reader, f2_records):
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=10, n_reader=2,
                                       k_spans_per_paragraph=2))
        result = pipe.answer(f2_records[0].question)
        counts = result.trace.counts
        assert counts["retrieved"] == 10
        assert counts["read"] == 2
        assert 2 <= counts["spans"] <= 4
        assert set(result.trace.times_ms) == {"retrieve", "rank", "rm3",
                                              "read", "fuse"}


class TestStageErrors:
    class ExplodingRanker:
        def rank_text(self, question, text):
            raise RuntimeError("boom")

    def test_error_carries_stage_identity(self, f2_index, f2_paragraphs,
                                          f2_reader):
        pipe = Pipeline(f2_index, f2_paragraphs, self.ExplodingRanker(),
                        f2_reader, PipelineConfig(n_retriever=5))
        with pytest.raises(StageError, match=r"\[rank\]"):
            pipe.answer("what was the height of mount ardenfell")

    def test_batch_records_error_and_continues(self, f2_index,
                                               f2_paragraphs, f2_reader,
                                               f2_records):
        pipe = Pipeline(f2_index, f2_paragraphs, self.ExplodingRanker(),
                        f2_reader, PipelineConfig(n_retriever=5))
        results = pipe.answer_batch([r.question for r in f2_records[:3]])
        assert len(results) == 3
        assert all(r.error and "[rank]" in r.error for r in results)
        assert all(r.answers == [] for r in results)

    def test_missing_paragraph_text(self, f2_index, f2_paragraphs,
                                    trained_ranker, f2_reader, f2_records):
        partial = dict(list(f2_paragraphs.items())[:5])
        pipe = Pipeline(f2_index, partial, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=5))
        with pytest.raises(StageError):
            pipe.answer(f2_records[0].question)


class TestBatch:
    def test_batch_of_one_equals_answer(self, f2_index, f2_paragraphs,
                                        trained_ranker, f2_reader,
                                        f2_records):
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=10))
        q = f2_records[0].question
        assert pipe.answer_batch([q])[0].answers == pipe.answer(q).answers

    def test_permutation_equivariance(self, f2_index, f2_paragraphs,
                                      trained_ranker, f2_reader,
                                      f2_records):
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=10))
        questions = [r.question for r in f2_records[:6]]
        fwd = pipe.answer_batch(questions)
        rev = pipe.answer_batch(questions[::-1])
        assert [r.answers for r in fwd] == [r.answers for r in rev][::-1]

    def test_builtin_batch_runs_on_calling_thread(self, f2_index,
                                                  f2_paragraphs, f2_reader,
                                                  f2_records):
        class ThreadRecordingRanker(ConstantRanker):
            def __init__(self):
                super().__init__()
                self.threads = set()

            def rank_text(self, question, text):
                self.threads.add(threading.get_ident())
                return self.value

        ranker = ThreadRecordingRanker()
        pipe = Pipeline(f2_index, f2_paragraphs, ranker, f2_reader,
                        PipelineConfig(n_retriever=10))
        results = pipe.answer_batch([r.question for r in f2_records[:12]])
        assert all(r.error is None and r.answers for r in results)
        assert ranker.threads == {threading.get_ident()}

    def test_repeat_runs_are_byte_identical(self, f2_index, f2_paragraphs,
                                            trained_ranker, f2_reader,
                                            f2_records):
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=10))
        questions = [r.question for r in f2_records[:10]]

        def lines():
            return [json.dumps(answer_record(f"q{i}", res)["answers"])
                    for i, res in enumerate(pipe.answer_batch(questions))]

        assert lines() == lines()


class TestAnswerRecord:
    def test_jsonl_shape(self, f2_index, f2_paragraphs, trained_ranker,
                         f2_reader, f2_records):
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=10))
        result = pipe.answer(f2_records[0].question)
        record = json.loads(dump_answer_line("qid-1", result))
        assert record["qid"] == "qid-1"
        first = record["answers"][0]
        assert set(first) == {"text", "para_id", "start", "end",
                              "s_retriever", "s_ranker", "s_reader", "fused"}
        assert "counts" in record["trace"] and "times_ms" in record["trace"]
