"""Builtin ranker and reader stages: truncation contract, training, and
span extraction quality on the frozen fixture."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindstone.corpus import Paragraph, segment, token_spans
from mindstone.eval import f1 as f1_score
from mindstone.index import InvertedIndex
from mindstone.scorers import (BuiltinRanker, BuiltinRankerModel,
                               BuiltinReader, RankExample, TrainConfig,
                               TruncationLimits, rank, read,
                               truncate_to_tokens)
from mindstone.scorers.builtin import (FEATURE_NAMES, extract_features,
                                       train_builtin_ranker,
                                       train_ranker_phases)
from mindstone.scorers.datasets import _by_article, resolve_gold_paragraph


class ConstantScorer:
    def __init__(self, value: float):
        self.value = value

    def rank_text(self, question, text):
        return self.value


def _truncate_by_counting(text, max_tokens):
    """Reference truncation: tokenize the whole text and count."""
    if max_tokens <= 0:
        return ""
    spans = token_spans(text)
    if len(spans) <= max_tokens:
        return text
    return text[:spans[max_tokens - 1][2]]


@st.composite
def _text_and_limit(draw):
    """Arbitrary Unicode, or text packed with short tokens, and a limit
    around the text's ceil(c / 2) bound on its token count."""
    text = draw(st.text() | st.lists(
        st.sampled_from(["a", "\u00e91", " ", "_", ".\n", "\u0301"]),
        max_size=20).map("".join))
    return text, draw(st.integers(-1, len(text) // 2 + 1))


class TestTruncation:
    def test_truncate_to_tokens(self):
        text = "one two three four five"
        assert truncate_to_tokens(text, 3) == "one two three"
        assert truncate_to_tokens(text, 99) == text
        assert truncate_to_tokens(text, 0) == ""

    @settings(max_examples=500, deadline=None)
    @given(_text_and_limit())
    @example(("a b", 1))  # 2 * max_tokens + 1 code points, one token over
    @example(("\u00e9.1_x", 2))
    def test_truncate_is_idempotent_prefix_equal_to_counting(self, case):
        text, max_tokens = case
        out = truncate_to_tokens(text, max_tokens)
        assert text.startswith(out)
        assert truncate_to_tokens(out, max_tokens) == out
        assert out == _truncate_by_counting(text, max_tokens)

    def test_rank_ignores_content_beyond_limit(self, f2_index):
        limits = TruncationLimits(ranker_para_tokens=50,
                                  reader_total_tokens=60)
        model = BuiltinRankerModel(feature_weights=(1.0,) * 6, bias=0.0)
        ranker = BuiltinRanker(model, f2_index)
        base_body = " ".join(f"word{i % 7}" for i in range(60))
        a = Paragraph("p#0", "a", "T", base_body + " cat dog", 0)
        b = Paragraph("p#1", "a", "T", base_body + " entirely different", 0)
        q = "what about word1 word2"
        score_a, score_b = rank(ranker, q, [a, b], limits)
        assert score_a == score_b

    def test_read_spans_stay_inside_truncated_text(self, f2_index,
                                                   f2_reader):
        limits = TruncationLimits(ranker_para_tokens=448,
                                  reader_total_tokens=20)
        body = " ".join(f"tok{i}" for i in range(100))
        para = Paragraph("p#0", "a", "", body, 0)
        question = "tok1 tok2 tok3"
        budget = limits.reader_total_tokens - len(segment(question))
        surviving = truncate_to_tokens(para.full_text, budget)
        for span in read(f2_reader, question, para, k=3, limits=limits):
            assert span.end_char <= len(surviving)
            assert span.text == surviving[span.start_char:span.end_char]

    def test_reader_budget_counts_question_tokens_as_spans(self):
        class WholeTextReader:
            def read_text(self, question, text, k):
                self.text = text
                return [(0, len(text), 1.0)]

        # Two question tokens: "\u0130".lower() is "i" plus a combining
        # mark, which must not split a token in two.
        reader = WholeTextReader()
        para = Paragraph("p#0", "a", "", "w1 w2 w3 w4 w5 w6", 0)
        read(reader, "\u0130a \u0130b", para, k=1,
             limits=TruncationLimits(reader_total_tokens=6))
        assert reader.text == "w1 w2 w3 w4"

    @settings(max_examples=300, deadline=None)
    @given(st.text(), st.text(min_size=1), st.integers(1, 12))
    @example("\u0130stanbul \u0130zmir x", "\u0130stanbul a b c d e f", 4)
    def test_builtin_read_spans_lie_in_truncated_text(self, question, body,
                                                      budget):
        para = Paragraph("p#0", "a", "", body, 0)
        reader = BuiltinReader(InvertedIndex.build([para]))
        limits = TruncationLimits(reader_total_tokens=budget)
        # The reader budget, counted with token_spans alone.
        q_count = min(len(token_spans(question)), budget - 1)
        surviving = _truncate_by_counting(body, max(1, budget - q_count))
        for span in read(reader, question, para, k=3, limits=limits):
            assert 0 <= span.start_char < span.end_char <= len(surviving)
            assert span.text == surviving[span.start_char:span.end_char]

    def test_limits_validated(self):
        with pytest.raises(ValueError):
            TruncationLimits(ranker_para_tokens=0)


class TestRank:
    def test_zero_model_scores_zero(self, f2_index, f2_paragraphs):
        ranker = BuiltinRanker(BuiltinRankerModel.zeros(), f2_index)
        para = next(iter(f2_paragraphs.values()))
        assert rank(ranker, "any question", [para]).tolist() == [0.0]

    def test_oracle_scorer_contract(self, f2_paragraphs, f2_records,
                                    oracle_ranker):
        record = f2_records[0]
        grouped = _by_article(f2_paragraphs.values())
        gold = resolve_gold_paragraph(record,
                                      grouped[record.gold_article_id])
        assert rank(oracle_ranker, record.question, [gold]).tolist() == [1.0]

    def test_trained_sign_agrees_with_labels(self, f2_records,
                                             f2_paragraphs, f2_index,
                                             trained_ranker):
        """Sign agreement >= 80% on a held-out slice of the paired dataset
        (measured 1.000 at fixture freeze)."""
        from mindstone.scorers.datasets import build_dataset_finetune
        dataset = build_dataset_finetune(f2_records, f2_paragraphs.values())
        held_out = dataset[int(len(dataset) * 0.8):]
        agree = sum(
            (rank(trained_ranker, ex.question,
                  [f2_paragraphs[ex.para_id]])[0] > 0)
            == (ex.label == 1)
            for ex in held_out)
        assert agree / len(held_out) >= 0.80

    def test_deterministic(self, f2_index, f2_paragraphs, trained_ranker):
        para = next(iter(f2_paragraphs.values()))
        scores = {rank(trained_ranker, "what was the height", [para])[0]
                  for _ in range(5)}
        assert len(scores) == 1


# Single letters joined by single separators pack the most tokens into a
# text, ceil(c / 2) in c code points; "a", "of" and "the" are stopwords and
# "zzz" is in no paragraph.
_WORDS = ["x", "y", "a", "of", "the", "cat", "dog", "stone", "hill"]


@st.composite
def _line(draw, max_words=8):
    words = draw(st.lists(st.sampled_from(_WORDS), min_size=1,
                          max_size=max_words))
    seps = draw(st.lists(st.sampled_from([" ", ", ", "-"]),
                         min_size=len(words), max_size=len(words)))
    return "".join(w + sep for w, sep in zip(words, seps))[:-1] or "x"


@st.composite
def _rank_pool_case(draw):
    limit = draw(st.integers(1, 30))
    indexed, pool = [], []
    for i in range(draw(st.integers(1, 6))):
        title = draw(st.sampled_from(["", "", "cat", "Stone hill", "x y"]))
        body = "\n".join(draw(st.lists(_line(), min_size=1, max_size=3)))
        if draw(st.booleans()):
            # Just under, at or just over the length that can be truncated.
            size = 2 * limit + draw(st.sampled_from([-1, 0, 1]))
            size -= len(title) + 1 if title else 0
            if size >= 1:
                body = ("x y " * size)[:size]
        para = Paragraph(f"p{i}", "a", title, body, i)
        indexed.append(para)
        variant = draw(st.sampled_from(
            ["indexed", "indexed", "other text", "same terms", "unindexed"]))
        if variant == "other text":
            para = Paragraph(para.para_id, "a", title, body + " dog", i)
        elif variant == "same terms":
            # Same term counts, but the first line (the title of an
            # untitled multi-line body) can change.
            body = " ".join(reversed(segment(body))) + "\nx"
            para = Paragraph(para.para_id, "a", title, body, i)
            indexed[-1] = Paragraph(para.para_id, "a", title,
                                    body.replace("\n", " "), i)
        elif variant == "unindexed":
            para = Paragraph(f"new{i}", "a", title, body, i)
        pool.append(para)
    pool = draw(st.lists(st.sampled_from(pool + indexed), max_size=10))
    question = " ".join(draw(st.lists(st.sampled_from(_WORDS + ["zzz"]),
                                      max_size=6)))
    weights = draw(st.lists(st.floats(-3, 3), min_size=6, max_size=6))
    bias = draw(st.floats(-3, 3))
    return limit, indexed, pool, question, weights, bias


class TestRankPool:
    @settings(max_examples=300, deadline=None)
    @given(_rank_pool_case())
    def test_equals_per_pair_features_bit_for_bit(self, case):
        limit, indexed, pool, question, weights, bias = case
        index = InvertedIndex.build(indexed)
        ranker = BuiltinRanker(BuiltinRankerModel(tuple(weights), bias),
                               index)
        w = np.array(weights)
        expected = [float(extract_features(
            question, truncate_to_tokens(p.full_text, limit), index) @ w
            + bias).hex() for p in pool]
        limits = TruncationLimits(ranker_para_tokens=limit)
        for _ in range(2):  # first use fills the memo, the second reads it
            got = rank(ranker, question, pool, limits)
            assert [s.hex() for s in got.tolist()] == expected


class TestRead:
    def test_paragraph_equal_to_gold_answer_returns_full_span(self):
        paras = [Paragraph("x#0", "x", "", "battle of hastings", 0),
                 Paragraph("x#1", "x", "", "farming was common here", 0),
                 Paragraph("x#2", "x", "", "other filler words", 0)]
        idx = InvertedIndex.build(paras)
        spans = read(BuiltinReader(idx), "what is the battle of hastings",
                     paras[0], k=3)
        assert spans[0].text == "battle of hastings"

    def test_k_one_returns_exactly_one_span(self, f2_reader, f2_paragraphs):
        para = next(iter(f2_paragraphs.values()))
        assert len(read(f2_reader, "what was the height", para, k=1)) == 1

    def test_k_bounds_span_count(self, f2_reader, f2_paragraphs):
        para = next(iter(f2_paragraphs.values()))
        spans = read(f2_reader, "what was the height", para, k=4)
        assert 1 <= len(spans) <= 4
        scores = [s.s_reader for s in spans]
        assert scores == sorted(scores, reverse=True)

    def test_k_must_be_positive(self, f2_reader, f2_paragraphs):
        para = next(iter(f2_paragraphs.values()))
        with pytest.raises(ValueError):
            read(f2_reader, "q", para, k=0)

    def test_span_text_matches_slice(self, f2_reader, f2_paragraphs,
                                     f2_records):
        for record in f2_records[:20]:
            grouped = _by_article(f2_paragraphs.values())
            gold = resolve_gold_paragraph(record,
                                          grouped[record.gold_article_id])
            for span in read(f2_reader, record.question, gold, k=2):
                assert span.text == gold.full_text[span.start_char:
                                                   span.end_char]

    def test_tokenless_text_falls_back_to_whole_span(self, f2_index):
        para = Paragraph("p#0", "a", "", "!!! ---", 0)
        spans = read(BuiltinReader(f2_index), "question", para, k=1)
        assert len(spans) == 1
        assert spans[0].text == "!!! ---"

    def test_fixture_gold_pairs_f1(self, f2_records, f2_paragraphs,
                                   f2_reader):
        """Top span F1 >= 0.5 against gold on >= 70% of fixture pairs
        (measured 100% at fixture freeze)."""
        grouped = _by_article(f2_paragraphs.values())
        good = 0
        for record in f2_records:
            gold = resolve_gold_paragraph(record,
                                          grouped[record.gold_article_id])
            top = read(f2_reader, record.question, gold, k=1)[0]
            good += f1_score(top.text, list(record.gold_answers)) >= 0.5
        assert good / len(f2_records) >= 0.70


class TestTraining:
    @staticmethod
    def _separable_dataset(n=60):
        # Label 1 iff the text mentions the marker term from the question.
        examples = []
        for i in range(n):
            label = i % 2
            text = ("Marker\nthe marker appears right here today"
                    if label else "Marker\nnothing relevant shows up today")
            examples.append(RankExample(question="where is the marker",
                                        para_id=f"p{i}", text=text,
                                        label=label))
        return examples

    def test_separable_data_perfect_holdout(self, f2_index):
        model, report = train_builtin_ranker(self._separable_dataset(),
                                             f2_index)
        assert report.holdout_accuracy == 1.0

    def test_shuffled_labels_near_chance(self, f2_records, f2_paragraphs,
                                         f2_index):
        """Random labels give ~0.5 holdout accuracy (5-seed average;
        measured 0.470 at fixture freeze)."""
        from mindstone.scorers.datasets import build_dataset_finetune
        base = build_dataset_finetune(f2_records, f2_paragraphs.values())
        accs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            labels = np.array([ex.label for ex in base])
            rng.shuffle(labels)
            shuffled = [RankExample(ex.question, ex.para_id, ex.text,
                                    int(lbl))
                        for ex, lbl in zip(base, labels)]
            _, report = train_builtin_ranker(shuffled, f2_index,
                                             TrainConfig(seed=seed))
            accs.append(report.holdout_accuracy)
        assert 0.4 <= np.mean(accs) <= 0.6, accs

    def test_constant_length_column_stays_bounded(self, f2_index):
        """Every paragraph has 37 tokens, so log_length is constant, yet
        its column std is ~7e-14, not 0. That column must not get a
        weight that makes the ranker order paragraphs by length."""
        rng = np.random.default_rng(0)
        filler = ["river", "stone", "cloud", "lamp", "book", "snow", "wind",
                  "hill", "field", "tower"]

        def text(n_tokens, marker):
            words = [filler[int(rng.integers(len(filler)))]
                     for _ in range(n_tokens - 1)]
            return " ".join(["marker" if marker else "nothing"] + words)

        question = "where is the marker"
        data = [RankExample(question, f"p{i}", text(37, i % 2), i % 2)
                for i in range(1000)]
        model, _ = train_builtin_ranker(data, f2_index)
        assert max(abs(w) for w in model.feature_weights) < 100
        assert abs(model.bias) < 100
        ranker = BuiltinRanker(model, f2_index)
        for n_tokens in (5, 80):
            assert ranker.rank_text(question, text(n_tokens, True)) > 0
            assert ranker.rank_text(question, text(n_tokens, False)) < 0

    def test_empty_dataset_rejected(self, f2_index):
        with pytest.raises(ValueError):
            train_builtin_ranker([], f2_index)

    def test_single_label_rejected(self, f2_index):
        ones = [ex for ex in self._separable_dataset() if ex.label == 1]
        with pytest.raises(ValueError):
            train_builtin_ranker(ones, f2_index)

    def test_reproducible(self, f2_index):
        data = self._separable_dataset()
        m1, _ = train_builtin_ranker(data, f2_index, TrainConfig(seed=3))
        m2, _ = train_builtin_ranker(data, f2_index, TrainConfig(seed=3))
        assert m1.feature_weights == m2.feature_weights
        assert m1.bias == m2.bias

    def test_sequential_phases_continue_model(self, f2_index):
        data = self._separable_dataset()
        model, reports = train_ranker_phases([data, data], f2_index,
                                             mode="sequential")
        assert len(reports) == 2
        solo, _ = train_builtin_ranker(data, f2_index)
        assert model.feature_weights != solo.feature_weights

    def test_concat_mode(self, f2_index):
        data = self._separable_dataset()
        model, reports = train_ranker_phases([data[:30], data[30:]],
                                             f2_index, mode="concat")
        assert len(reports) == 1
        merged, _ = train_builtin_ranker(data, f2_index)
        assert model.feature_weights == merged.feature_weights

    def test_model_persistence(self, f2_index, tmp_path):
        model, _ = train_builtin_ranker(self._separable_dataset(), f2_index)
        model.save(tmp_path / "model.json")
        loaded = BuiltinRankerModel.load(tmp_path / "model.json")
        assert loaded == model
        assert len(loaded.feature_weights) == len(FEATURE_NAMES)

    def test_non_finite_model_rejected(self):
        with pytest.raises(ValueError):
            BuiltinRankerModel(feature_weights=(float("nan"),) * 6, bias=0.0)
