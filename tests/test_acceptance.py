"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Thresholds are pinned here; fixture-measured values are frozen in
tests/fixtures/README.md.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from conftest import FIXTURES, BruteForceBm25, make_random_corpus
from mindstone.eval import exact_match, f1 as f1_metric, normalize_answer
from mindstone.eval import (contains_answer, first_hit, run_benchmark,
                            run_eval)
from mindstone.expansion import ExpansionParams, expand_query
from mindstone.fusion import FusionWeights, normalize_scores
from mindstone.index import InvertedIndex, QueryVector
from mindstone.pipeline import Pipeline, PipelineConfig, SpanCandidate
from mindstone.scorers import BuiltinRanker
from mindstone.scorers.builtin import train_builtin_ranker
from mindstone.scorers.datasets import (build_dataset_aug1,
                                        build_dataset_aug2,
                                        build_dataset_finetune)


def _report(n: int, message: str):
    print(f"\n[acceptance] criterion {n} PASS: {message}")


def test_criterion_01_bm25_oracle_equivalence():
    """Retrieve and retrieve_weighted match an exhaustive scorer exactly in
    ranking and within 1e-9 relative in score, over 100+ random corpora."""
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    vocab = ["cat", "dog", "bird", "fish", "ran", "sat", "hill", "tree",
             "rain", "wind", "blue", "red", "tall", "fast", "stone", "zzz"]
    corpora = 0
    for _ in range(110):
        paragraphs, stopwords = make_random_corpus(rng, max_docs=50)
        index = InvertedIndex.build(paragraphs, stopwords=stopwords)
        oracle = BruteForceBm25(paragraphs, 0.9, 0.4, stopwords)
        corpora += 1
        for _ in range(3):
            n = int(rng.integers(1, 60))
            n_terms = int(rng.integers(1, 9))
            terms = [vocab[int(rng.integers(len(vocab)))]
                     for _ in range(n_terms)]
            question = " ".join(terms)
            got = index.retrieve(question, n).hits
            want = oracle.retrieve(question, n)
            assert [p for p, _ in got] == [p for p, _ in want], question
            for (_, gs), (_, ws) in zip(got, want):
                assert gs == pytest.approx(ws, rel=1e-9)

            weights = {t: float(rng.uniform(-1.0, 2.0)) for t in set(terms)}
            got_w = index.retrieve_weighted(QueryVector(weights), n).hits
            want_w = oracle.retrieve_weighted(weights, n)
            assert [p for p, _ in got_w] == [p for p, _ in want_w], weights
            for (_, gs), (_, ws) in zip(got_w, want_w):
                assert gs == pytest.approx(ws, rel=1e-9)
    elapsed = time.perf_counter() - started
    assert corpora >= 100
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _report(1, f"{corpora} corpora, exact rankings, scores within 1e-9, "
               f"{elapsed:.1f}s")


def test_criterion_02_metric_golden_file(metrics_golden):
    """EM/F1/normalize_answer agree with the 20-case hand-derived file."""
    for case in metrics_golden:
        assert normalize_answer(case["pred"]) == case["norm_pred"], case
        assert exact_match(case["pred"], case["golds"]) == case["em"], case
        num, den = case["f1"]
        assert abs(f1_metric(case["pred"], case["golds"]) - num / den) \
            < 1e-15, case
    _report(2, f"{len(metrics_golden)} golden cases exact")


def test_criterion_03_fusion_invariance():
    """Adding a constant to all raw scores of any one stage leaves the final
    answer ordering bit-identical; normalize_scores max is exactly 1."""
    rng = np.random.default_rng(77)

    def build_answers(raw):
        n_ret = normalize_scores([r[0] for r in raw])
        n_rank = normalize_scores([r[1] for r in raw])
        n_read = normalize_scores([r[2] for r in raw])
        candidates = [SpanCandidate(
            para_id=f"p{i // 2}#0", start_char=i, end_char=i + 3,
            text=f"answer {i}", s_retriever=raw[i][0], s_ranker=raw[i][1],
            s_reader=raw[i][2], n_retriever=n_ret[i], n_ranker=n_rank[i],
            n_reader=n_read[i]) for i in range(len(raw))]
        weights = FusionWeights(0.3, 0.3, 0.4)
        return [(a.para_id, a.start_char, a.end_char, a.answer_text)
                for a in Pipeline.fuse_candidates(candidates, weights)]

    trials = 0
    for _ in range(400):
        k = int(rng.integers(1, 12))
        raw = [tuple(rng.uniform(-10, 10, size=3)) for _ in range(k)]
        baseline = build_answers(raw)
        stage = int(rng.integers(3))
        shift = float(rng.uniform(-1e3, 1e3))
        shifted = [tuple(v + shift if s == stage else v
                         for s, v in enumerate(row)) for row in raw]
        assert build_answers(shifted) == baseline
        trials += 1

    for _ in range(200):
        scores = rng.uniform(-1e4, 1e4,
                             size=int(rng.integers(1, 15))).tolist()
        assert max(normalize_scores(scores)) == 1.0
    _report(3, f"{trials} random candidate sets invariant under per-stage "
               f"shifts; normalized max always exactly 1")


def test_criterion_04_expansion_formula():
    """Alpha in {0, 0.5, 1} algebraic identities plus non-positive gating,
    1000+ randomized trials."""

    class StubIndex:
        def __init__(self, vectors):
            self.vectors = vectors

        def doc_tfidf_top(self, pid, top_terms):
            return QueryVector(dict(self.vectors[pid]))

    rng = np.random.default_rng(4040)
    terms = [f"t{i}" for i in range(12)]
    trials = 0
    for _ in range(1000):
        vectors = {f"d{i}": {t: float(rng.uniform(0.1, 3.0))
                             for t in rng.choice(terms, size=3,
                                                 replace=False)}
                   for i in range(6)}
        index = StubIndex(vectors)
        q = QueryVector({t: float(rng.uniform(0.1, 2.0))
                         for t in rng.choice(terms, size=2, replace=False)})
        ranked = [(f"d{i}", float(rng.uniform(-2.0, 2.0)))
                  for i in range(6)]
        positives = [(d, s) for d, s in ranked if s > 0.0]

        out1 = expand_query(q, ranked, index, ExpansionParams(alpha=1.0))
        assert out1.weights == q.weights

        out0 = expand_query(q, ranked, index, ExpansionParams(alpha=0.0))
        expected0 = {}
        for d, _ in positives:
            for t, w in vectors[d].items():
                expected0[t] = expected0.get(t, 0.0) + w
        assert set(out0.weights) == set(expected0)
        for t, w in expected0.items():
            assert out0.weights[t] == pytest.approx(w, rel=1e-12)

        mid = expand_query(q, ranked, index, ExpansionParams(alpha=0.5))
        for t in set(mid.weights) | set(out0.weights) | set(out1.weights):
            lo, hi = out0.weights.get(t, 0.0), out1.weights.get(t, 0.0)
            assert mid.weights.get(t, 0.0) == pytest.approx(
                (lo + hi) / 2, abs=1e-12)

        # Gating: altering the content of non-positive docs changes nothing.
        perturbed = {d: ({t: float(rng.uniform(5, 9)) for t in terms[:4]}
                         if all(d != p for p, _ in positives) else v)
                     for d, v in vectors.items()}
        mid2 = expand_query(q, ranked, StubIndex(perturbed),
                            ExpansionParams(alpha=0.5))
        assert mid2.weights == mid.weights
        trials += 1
    assert trials >= 1000
    _report(4, f"{trials} randomized trials: alpha identities and "
               f"non-positive gating hold")


def test_criterion_05_cascade_upper_bound(f2_index, f2_paragraphs,
                                          f2_records, trained_ranker,
                                          f2_reader):
    """Pipeline top-1 EM never exceeds lenient recall at the retrieval
    depth, for n_retriever in {5, 20, 100}."""
    results = {}
    for n_retriever in (5, 20, 100):
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=n_retriever))
        report, _ = run_eval(f2_records, pipe, [n_retriever])
        assert report.em <= report.recall_at[n_retriever] + 1e-12, \
            (n_retriever, report.em, report.recall_at[n_retriever])
        results[n_retriever] = (report.em, report.recall_at[n_retriever])
    summary = ", ".join(f"n={n}: EM {em:.3f} <= recall {rec:.3f}"
                        for n, (em, rec) in results.items())
    _report(5, summary)


def test_criterion_06_ranker_lift(f2_index, f2_paragraphs, f2_records,
                                  f2_reader):
    """Training approach 1 then approach 3 lifts recall@5 above the raw
    retriever, and strict recall never exceeds lenient recall."""
    started = time.perf_counter()
    finetune = build_dataset_finetune(f2_records, f2_paragraphs.values())
    phase1, _ = train_builtin_ranker(finetune, f2_index)
    aug2 = build_dataset_aug2(f2_records, f2_index, f2_paragraphs,
                              BuiltinRanker(phase1, f2_index), m=100, n=5)
    model, _ = train_builtin_ranker(aug2, f2_index, init=phase1)
    ranker = BuiltinRanker(model, f2_index)

    pipe = Pipeline(f2_index, f2_paragraphs, ranker, f2_reader,
                    PipelineConfig(n_retriever=100))
    grid = [1, 5, 20, 100]
    _, curves = run_eval(f2_records, pipe, grid)
    by_n = {c.n: c for c in curves}
    assert by_n[5].ranker_recall > by_n[5].retriever_recall, \
        (by_n[5].ranker_recall, by_n[5].retriever_recall)
    for c in curves:
        assert c.strict_retriever_recall <= c.retriever_recall + 1e-12
        assert c.strict_ranker_recall <= c.ranker_recall + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    _report(6, f"ranker recall@5 {by_n[5].ranker_recall:.3f} > retriever "
               f"{by_n[5].retriever_recall:.3f}; strict <= lenient on "
               f"grid {grid}; {elapsed:.0f}s")


def test_criterion_07_rm3_directional(f2_index, f2_paragraphs, f2_records,
                                      oracle_ranker, f2_reader):
    """With the containment-oracle ranker, enabling the expansion second
    pass never lowers ranked-pool recall@20. The measured delta (frozen in
    tests/fixtures/README.md) is 0.0 on this fixture."""
    texts = {pid: p.full_text for pid, p in f2_paragraphs.items()}

    def recall20(rm3_enabled):
        pipe = Pipeline(f2_index, f2_paragraphs, oracle_ranker, f2_reader,
                        PipelineConfig(n_retriever=100,
                                       rm3_enabled=rm3_enabled))
        hits = sum(first_hit([texts[pid] for pid, _ in
                              pipe.answer(r.question).ranked],
                             lambda t: contains_answer(t, r.gold_answers),
                             20) < 20
                   for r in f2_records)
        return hits / len(f2_records)

    off = recall20(False)
    on = recall20(True)
    assert on >= off, (on, off)
    assert on - off == pytest.approx(0.0), "delta drifted from frozen value"
    _report(7, f"recall@20 with expansion {on:.4f} >= without {off:.4f} "
               f"(delta {on - off:+.4f}, matching the frozen measurement)")


def test_criterion_08_timing_methodology(f2_index, f2_paragraphs,
                                         f2_records, trained_ranker,
                                         f2_reader):
    """Benchmark protocol: min of 5 run means over 200 queries, stage
    breakdown within 5% of total, and a strict latency gap between
    n_retriever=20 and n_retriever=100. Each configuration is measured
    twice, in the order 20, 100, 100, 20, and keeps its lower figure, so
    that one slow phase of the host cannot land on one configuration
    alone."""
    reported = {}
    for n_retriever in (20, 100, 100, 20):
        pipe = Pipeline(f2_index, f2_paragraphs, trained_ranker, f2_reader,
                        PipelineConfig(n_retriever=n_retriever))
        latency = run_benchmark(f2_records, pipe, runs=5,
                                queries_per_run=200)
        assert latency.runs == 5
        assert latency.queries_per_run == 200
        assert latency.reported_ms == min(latency.per_run_mean_ms)
        breakdown_total = sum(latency.stage_breakdown_ms.values())
        assert breakdown_total == pytest.approx(latency.reported_ms,
                                                rel=0.05), \
            (breakdown_total, latency.reported_ms)
        reported[n_retriever] = min(latency.reported_ms,
                                    reported.get(n_retriever, math.inf))
    assert reported[20] < reported[100], reported
    _report(8, f"min-of-5 protocol held; {reported[20]:.2f} ms/query at "
               f"n=20 < {reported[100]:.2f} ms/query at n=100")


def test_criterion_09_determinism(f2_records, f2_paragraphs, f2_index,
                                  trained_ranker, tmp_path):
    """Two eval runs produce byte-identical report.json and curves.csv."""
    from mindstone.cli import main

    f2_index.save(tmp_path / "idx")
    trained_ranker.model.save(tmp_path / "model.json")
    outputs = {}
    for attempt in (0, 1):
        out_dir = tmp_path / f"run-{attempt}"
        code = main([
            "eval", "--index", str(tmp_path / "idx"),
            "--paragraphs", str(FIXTURES / "f2_paragraphs.jsonl"),
            "--ranker-model", str(tmp_path / "model.json"),
            "--questions", str(FIXTURES / "f2_questions.jsonl"),
            "--n-grid", "1,5,20,100", "--seed", "0",
            "--out-dir", str(out_dir)])
        assert code == 0
        outputs[attempt] = ((out_dir / "report.json").read_bytes(),
                            (out_dir / "curves.csv").read_bytes())
    assert outputs[1] == outputs[0], "repeat run differs"
    _report(9, "report.json and curves.csv byte-identical across repeats")


def test_criterion_10_dataset_builders(f2_index, f2_paragraphs, f2_records):
    """aug2 with a constant ranker and m=n=5 equals aug1 (n=5); every label
    re-verified independently; defaults are m=100, n=5."""
    import inspect
    import re
    import string

    class ConstantScorer:
        def rank_pool(self, question, para_ids, texts):
            return [0.0] * len(texts)

    aug1 = build_dataset_aug1(f2_records, f2_index, f2_paragraphs, n=5)
    aug2 = build_dataset_aug2(f2_records, f2_index, f2_paragraphs,
                              ConstantScorer(), m=5, n=5)
    assert Counter(aug1) == Counter(aug2)

    def independent_contains(text, answers):
        def norm(s):
            s = "".join(c for c in s.lower()
                        if c not in string.punctuation)
            return " ".join(re.sub(r"\b(a|an|the)\b", " ", s).split())
        hay = norm(text)
        return any(norm(x) and norm(x) in hay for x in answers)

    golds = {r.question: r.gold_answers for r in f2_records}
    for ex in aug1 + aug2:
        assert ex.label == int(independent_contains(ex.text,
                                                    golds[ex.question]))

    params = inspect.signature(build_dataset_aug2).parameters
    assert params["m"].default == 100 and params["n"].default == 5
    assert inspect.signature(build_dataset_aug1).parameters["n"].default == 5
    _report(10, f"aug2(const, m=n=5) == aug1(n=5) over "
                f"{len(f2_records)} questions; {len(aug1) + len(aug2)} "
                f"labels re-verified; defaults m=100, n=5")
