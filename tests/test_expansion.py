"""Ranker-gated query expansion: mixing formula, gating, and linearity."""

import numpy as np
import pytest

from mindstone.corpus import Paragraph
from mindstone.expansion import ExpansionParams, expand_query, question_vector
from mindstone.index import InvertedIndex, QueryVector


@pytest.fixture(scope="module")
def small_index():
    paras = [Paragraph(f"d{i}", f"a{i}", "", body, 0) for i, body in
             enumerate(["x x cat", "y dog dog", "cat dog bird", "z z z"])]
    return InvertedIndex.build(paras, stopwords=frozenset())


class TestExpandQuery:
    def test_alpha_one_returns_q_unchanged(self, small_index):
        q = QueryVector({"y": 1.0, "cat": 2.0})
        out = expand_query(q, [("d0", 5.0), ("d1", 3.0)], small_index,
                           ExpansionParams(alpha=1.0, top_terms=3))
        assert out.weights == q.weights
        assert out is not q

    def test_no_positive_docs_scales_q(self, small_index):
        q = QueryVector({"y": 1.0, "cat": 2.0})
        out = expand_query(q, [("d0", 0.0), ("d1", -2.0)], small_index,
                           ExpansionParams(alpha=0.5, top_terms=3))
        assert out.weights == {"y": 0.5, "cat": 1.0}

    def test_direct_substitution_example(self):
        # alpha=0.5, q={y:1.0}, one positive doc whose top-terms vector is
        # {x: 2.0}: q' = {y: 0.5, x: 1.0}.
        class StubIndex:
            def doc_tfidf_top(self, pid, top_terms):
                return QueryVector({"x": 2.0})

        out = expand_query(QueryVector({"y": 1.0}), [("d0", 1.0)],
                           StubIndex(), ExpansionParams(alpha=0.5))
        assert out.weights == {"y": 0.5, "x": 1.0}

    def test_input_vector_untouched(self, small_index):
        q = QueryVector({"cat": 1.0})
        before = dict(q.weights)
        expand_query(q, [("d2", 1.0)], small_index,
                     ExpansionParams(alpha=0.25, top_terms=2))
        assert q.weights == before

    def test_gating_ignores_nonpositive_docs(self, small_index):
        q = QueryVector({"cat": 1.0})
        params = ExpansionParams(alpha=0.5, top_terms=3)
        base = expand_query(q, [("d0", 2.0)], small_index, params)
        with_neg = expand_query(q, [("d0", 2.0), ("d1", 0.0), ("d3", -1.0)],
                                small_index, params)
        assert with_neg.weights == base.weights

    def test_gating_randomized(self, small_index):
        rng = np.random.default_rng(21)
        params = ExpansionParams(alpha=0.5, top_terms=3)
        doc_ids = ["d0", "d1", "d2", "d3"]
        for _ in range(300):
            q = QueryVector({"cat": float(rng.uniform(0.1, 2.0))})
            scores = {d: float(rng.uniform(-2.0, 2.0)) for d in doc_ids}
            everyone = expand_query(q, list(scores.items()), small_index,
                                    params)
            positives_only = expand_query(
                q, [(d, s) for d, s in scores.items() if s > 0.0],
                small_index, params)
            assert everyone.weights == positives_only.weights

    def test_affine_in_alpha(self, small_index):
        q = QueryVector({"cat": 1.0, "y": 0.5})
        ranked = [("d0", 1.0), ("d2", 2.0)]
        outs = {a: expand_query(q, ranked, small_index,
                                ExpansionParams(alpha=a, top_terms=3)).weights
                for a in (0.0, 0.5, 1.0)}
        terms = set(outs[0.0]) | set(outs[0.5]) | set(outs[1.0])
        for t in terms:
            lo = outs[0.0].get(t, 0.0)
            mid = outs[0.5].get(t, 0.0)
            hi = outs[1.0].get(t, 0.0)
            assert mid == pytest.approx((lo + hi) / 2, abs=1e-12)

    def test_support_is_bounded(self, small_index):
        q = QueryVector({"cat": 1.0, "qonly": 3.0})
        ranked = [("d0", 1.0), ("d1", -1.0), ("d2", 0.5)]
        params = ExpansionParams(alpha=0.5, top_terms=2)
        out = expand_query(q, ranked, small_index, params)
        allowed = set(q.weights)
        for pid, score in ranked:
            if score > 0:
                allowed |= set(small_index.doc_tfidf_top(
                    pid, params.top_terms).weights)
        assert set(out.weights) <= allowed

    def test_zero_weight_terms_dropped(self, small_index):
        q = QueryVector({"cat": 1.0})
        out = expand_query(q, [], small_index,
                           ExpansionParams(alpha=0.0, top_terms=3))
        assert out.weights == {}


class TestQuestionVector:
    def test_tf_idf_weights(self, small_index):
        vec = question_vector(small_index, "cat cat dog")
        assert vec.weights["cat"] == pytest.approx(2 * small_index.idf("cat"))
        assert vec.weights["dog"] == pytest.approx(1 * small_index.idf("dog"))

    def test_stopwords_excluded(self, f2_index):
        vec = question_vector(f2_index, "the the of cat")
        assert "the" not in vec.weights and "of" not in vec.weights


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExpansionParams(alpha=1.5)
        with pytest.raises(ValueError):
            ExpansionParams(top_terms=-1)
        with pytest.raises(ValueError):
            ExpansionParams(second_pass_n=-2)
