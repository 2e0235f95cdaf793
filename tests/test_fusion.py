"""Score normalization, weighted fusion, and grid-search weight tuning."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindstone.eval import GoldRecord, exact_match
from mindstone.fusion import (FusionWeights, GridPoint, fuse,
                              normalize_scores, simplex_grid, tune_weights,
                              write_tuning_csv)
from mindstone.pipeline import (Pipeline, PipelineConfig, PipelineResult,
                                SpanCandidate, StageTrace)


def _loop_tune_weights(dev_records, pipeline, grid_step=0.05):
    """Grid search with one full fuse/sort/dedupe per (grid point,
    question): the oracle that the array search in ``tune_weights`` must
    equal."""
    if not dev_records:
        raise ValueError("empty dev set")
    results = pipeline.answer_batch([r.question for r in dev_records])
    cached = [(record, result.candidates)
              for record, result in zip(dev_records, results)]

    report = []
    best = None
    for weights in simplex_grid(grid_step):
        hits = 0
        for record, candidates in cached:
            answers = pipeline.fuse_candidates(candidates, weights)
            top = answers[0].answer_text if answers else ""
            hits += exact_match(top, record.gold_answers)
        point = GridPoint(weights, hits / len(cached))
        report.append(point)
        if best is None or point.em > best.em or (
                point.em == best.em
                and (weights.w_reader, weights.w_ranker)
                > (best.weights.w_reader, best.weights.w_ranker)):
            best = point
    return best.weights, report


class TestNormalizeScores:
    def test_examples(self):
        assert normalize_scores([3, 1, -2]) == [1, -1, -4]
        assert normalize_scores([-5]) == [1]
        assert normalize_scores([]) == []

    def test_overflowing_shift_rejected(self):
        # 1e308 apart still shifts; 2e308 apart would give -inf, and fusing
        # -inf with a zero weight gives nan.
        assert normalize_scores([1e308, 0.0]) == [1.0, -1e308]
        with pytest.raises(ValueError, match="too far apart"):
            normalize_scores([1e308, -1e308])

    def test_max_is_exactly_one(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            scores = rng.uniform(-1e3, 1e3,
                                 size=int(rng.integers(1, 20))).tolist()
            out = normalize_scores(scores)
            assert max(out) == 1.0

    def test_strictly_order_preserving(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            scores = rng.uniform(-50, 50, size=10).tolist()
            out = normalize_scores(scores)
            for i in range(10):
                for j in range(10):
                    if scores[i] < scores[j]:
                        assert out[i] < out[j]


class TestFuse:
    W = FusionWeights

    def test_retriever_only(self):
        assert fuse((0.7, -3.0, 5.0), self.W(1, 0, 0)) == 0.7

    def test_all_ones_fuse_to_one(self):
        for w in simplex_grid(0.25):
            assert fuse((1.0, 1.0, 1.0), w) == pytest.approx(1.0)

    def test_arithmetic_example(self):
        assert fuse((0.2, 1.0, -1.0), self.W(0, 0.5, 0.5)) == 0.0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            self.W(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            self.W(-0.1, 0.6, 0.5)

    @pytest.mark.parametrize("weights", [
        (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan),
        (math.inf, 0.5, 0.5), (-math.inf, math.inf, 1.0)])
    def test_non_finite_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            self.W(*weights)

    def test_monotone_in_each_component(self):
        w = self.W(0.2, 0.3, 0.5)
        base = fuse((0.1, 0.2, 0.3), w)
        assert fuse((0.2, 0.2, 0.3), w) > base
        assert fuse((0.1, 0.3, 0.3), w) > base
        assert fuse((0.1, 0.2, 0.4), w) > base


class TestSimplexGrid:
    def test_grid_point_count_at_005(self):
        assert len(simplex_grid(0.05)) == 231

    def test_all_points_valid(self):
        for w in simplex_grid(0.1):
            assert abs(w.w_retriever + w.w_ranker + w.w_reader - 1) < 1e-9

    def test_step_validation(self):
        with pytest.raises(ValueError):
            simplex_grid(0.0)
        with pytest.raises(ValueError):
            simplex_grid(0.7)

    @pytest.mark.parametrize("grid_step", [0.4, 0.3, 0.15, 0.049])
    def test_step_that_does_not_divide_one_rejected(self, grid_step):
        with pytest.raises(ValueError, match="divide 1"):
            simplex_grid(grid_step)

    @pytest.mark.parametrize("grid_step,steps",
                             [(0.05, 20), (0.1, 10), (0.25, 4), (0.5, 2),
                              (1 / 3, 3)])
    def test_dividing_step_gives_its_lattice(self, grid_step, steps):
        grid = simplex_grid(grid_step)
        assert len(grid) == (steps + 1) * (steps + 2) // 2
        assert ({w.w_reader for w in grid}
                == {k / steps for k in range(steps + 1)})


class _StubPipeline:
    """Per-question candidates with controlled normalized scores; reuses the
    real fuse/sort/dedup step."""

    def __init__(self, candidates_by_question):
        self.by_question = candidates_by_question
        self.batches = []

    def answer_batch(self, questions):
        self.batches.append(list(questions))
        return [PipelineResult(answers=[], trace=StageTrace(), retrieved=[],
                               ranked=[], candidates=self.by_question[q])
                for q in questions]

    fuse_candidates = staticmethod(Pipeline.fuse_candidates)


def _cand(pid, text, n_ret, n_rank, n_read):
    return SpanCandidate(para_id=pid, start_char=0, end_char=len(text),
                         text=text, s_retriever=n_ret, s_ranker=n_rank,
                         s_reader=n_read, n_retriever=n_ret, n_ranker=n_rank,
                         n_reader=n_read)


class TestTuneWeights:
    def test_reader_correlated_dev_set_selects_reader(self):
        # The right answer wins only on the reader component.
        records, by_q = [], {}
        for i in range(6):
            q = f"question {i}"
            records.append(GoldRecord(f"q{i}", q, (f"right{i}",)))
            by_q[q] = [
                _cand("a#0", f"wrong{i}", 1.0, 1.0, 0.0),
                _cand("b#0", f"right{i}", 0.0, 0.0, 1.0),
            ]
        pipe = _StubPipeline(by_q)
        best, report = tune_weights(records, pipe, grid_step=0.25)
        assert best == FusionWeights(0, 0, 1)
        assert max(p.em for p in report) == 1.0

    def test_all_ties_resolve_to_reader(self):
        records = [GoldRecord("q0", "q", ("never matched",))]
        pipe = _StubPipeline({"q": [_cand("a#0", "text", 1, 1, 1)]})
        best, report = tune_weights(records, pipe, grid_step=0.5)
        assert best == FusionWeights(0, 0, 1)
        assert all(p.em == 0.0 for p in report)

    def test_candidates_collected_once_per_question(self):
        records = [GoldRecord(f"q{i}", f"q{i}", ("x",)) for i in range(4)]
        pipe = _StubPipeline({f"q{i}": [_cand("a#0", "x", 1, 1, 1)]
                              for i in range(4)})
        _, report = tune_weights(records, pipe, grid_step=0.05)
        assert len(report) == 231
        assert pipe.batches == [[f"q{i}" for i in range(4)]]

    def test_failed_question_answers_empty_and_is_logged(
            self, f2_index, f2_paragraphs, f2_records, trained_ranker,
            f2_reader, caplog):
        records = f2_records[:2]

        class FailingReader:
            def read_pool(self, question, para_ids, texts, k):
                if question == records[0].question:
                    raise RuntimeError("reader crashed")
                return f2_reader.read_pool(question, para_ids, texts, k)

        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker,
                        FailingReader(), PipelineConfig(n_retriever=20))
        with caplog.at_level("WARNING", logger="mindstone"):
            _, report = tune_weights(records, pipe, grid_step=0.25)
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "mindstone" and r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert warnings[0].startswith(
            f"question {records[0].qid} failed: [read] ")
        assert warnings[0].endswith(": reader crashed")
        # The failed question scores exact_match("", golds) = 0 everywhere.
        _, alone = tune_weights(records[1:], pipe, grid_step=0.25)
        assert [p.em for p in report] == [p.em / 2 for p in alone]
        assert max(p.em for p in alone) == 1.0

    def test_empty_dev_set_rejected(self):
        with pytest.raises(ValueError):
            tune_weights([], _StubPipeline({}), grid_step=0.5)

    def test_report_csv(self, tmp_path):
        records = [GoldRecord("q0", "q", ("x",))]
        pipe = _StubPipeline({"q": [_cand("a#0", "x", 1, 1, 1)]})
        _, report = tune_weights(records, pipe, grid_step=0.5)
        path = tmp_path / "tuning.csv"
        write_tuning_csv(report, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["w_retriever", "w_ranker", "w_reader", "em"]
        assert len(rows) == 1 + len(report)


# Texts that collide under normalize_answer, and scores that make fused
# sums tie exactly or miss a tie by an ulp.
_TEXTS = ["cat", "The Cat", "cat.", "a cat", "dog", "Dog!", "", "x"]
_SCORES = st.one_of(
    st.sampled_from([1.0, 0.0, -0.0, 0.1, 0.2, 0.3, 0.30000000000000004,
                     0.7, 0.7000000000000001, -1.0]),
    st.integers(-40, 20).map(lambda i: i * 0.05),
    st.floats(-4.0, 1.0))


@st.composite
def _dev_set(draw):
    """Dev records and their candidates, including questions without
    candidates and spans sharing (para_id, start_char) with different
    ends."""
    records, by_q = [], {}
    for i in range(draw(st.integers(1, 4))):
        question = f"question {i}"
        golds = draw(st.lists(st.sampled_from(_TEXTS), min_size=1,
                              max_size=2))
        records.append(GoldRecord(f"q{i}", question, tuple(golds)))
        by_q[question] = []
        for _ in range(draw(st.integers(0, 6))):
            start = draw(st.integers(0, 2))
            n = [draw(_SCORES) for _ in range(3)]
            by_q[question].append(SpanCandidate(
                para_id=draw(st.sampled_from(["a#0", "a#1", "b#0"])),
                start_char=start, end_char=start + draw(st.integers(1, 3)),
                text=draw(st.sampled_from(_TEXTS)), s_retriever=n[0],
                s_ranker=n[1], s_reader=n[2], n_retriever=n[0],
                n_ranker=n[1], n_reader=n[2]))
    return records, by_q


class TestTuneWeightsOracle:
    @settings(max_examples=300, deadline=None)
    @given(_dev_set(), st.sampled_from([0.05, 0.1, 0.25, 0.5]))
    def test_array_search_equals_loop(self, dev, grid_step):
        records, by_q = dev
        assert (tune_weights(records, _StubPipeline(by_q), grid_step)
                == _loop_tune_weights(records, _StubPipeline(by_q),
                                      grid_step))


# Multiples of 2^-10 of magnitude <= 2^20: a score plus a shift, and the
# difference of two shifted scores, are exact in float64.
_EXACT = st.one_of(st.integers(-8, 8), st.integers(-2**30, 2**30)).map(
    lambda i: i * 2.0 ** -10)


class TestShiftInvariance:
    @staticmethod
    def _order(rows, shift, weights):
        columns = [normalize_scores([row[2][j] + shift[j] for row in rows])
                   for j in range(3)]
        candidates = [SpanCandidate(
            para_id=pid, start_char=0, end_char=len(text), text=text,
            s_retriever=raw[0], s_ranker=raw[1], s_reader=raw[2],
            n_retriever=columns[0][i], n_ranker=columns[1][i],
            n_reader=columns[2][i])
            for i, (pid, text, raw) in enumerate(rows)]
        return [(a.para_id, a.start_char, a.end_char, a.answer_text)
                for a in Pipeline.fuse_candidates(candidates, weights)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["a#0", "a#1", "b#0"]),
                              st.sampled_from(_TEXTS),
                              st.tuples(_EXACT, _EXACT, _EXACT)),
                    min_size=1, max_size=8),
           st.tuples(_EXACT, _EXACT, _EXACT),
           st.sampled_from(simplex_grid(0.1)))
    def test_stage_offsets_leave_answer_order_unchanged(self, rows, shift,
                                                        weights):
        assert (self._order(rows, shift, weights)
                == self._order(rows, (0.0, 0.0, 0.0), weights))
