"""Inverted index: BM25 scoring, retrieval, persistence.

Retrieval answers are checked against BruteForceBm25 — an exhaustive
from-scratch evaluator that shares no code with the index path.
"""

import math

import numpy as np
import pytest

from conftest import BruteForceBm25, make_random_corpus
from mindstone.corpus import Paragraph
from mindstone.errors import IndexBuildError, UnknownDocumentError
from mindstone.index import Bm25Params, InvertedIndex, QueryVector


def _paras(*bodies, title=""):
    return [Paragraph(f"d{i}", f"a{i}", title, b, 0)
            for i, b in enumerate(bodies)]


class TestBuild:
    def test_hand_counted_statistics(self):
        idx = InvertedIndex.build(
            _paras("cat sat", "cat cat ran", "dog ran"), stopwords=frozenset())
        assert idx.doc_count == 3
        assert idx.doc_freq("cat") == 2
        assert idx.avg_doc_len == pytest.approx(7 / 3)

    def test_empty_stream(self):
        idx = InvertedIndex.build([])
        assert idx.doc_count == 0
        assert idx.retrieve("anything at all", 5).hits == []

    def test_rebuild_is_identical(self, f1_paragraphs):
        a = InvertedIndex.build(f1_paragraphs)
        b = InvertedIndex.build(f1_paragraphs)
        assert a.build_checksum == b.build_checksum
        for term in ("cat", "river", "lamp"):
            assert a.doc_freq(term) == b.doc_freq(term)

    def test_duplicate_para_id_names_offender(self):
        p = Paragraph("dup#0", "a", "", "text", 0)
        with pytest.raises(IndexBuildError, match="dup#0"):
            InvertedIndex.build([p, p])

    def test_params_validated(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=0.0)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)


class TestBm25Score:
    def test_absent_term_scores_zero(self):
        idx = InvertedIndex.build(_paras("cat sat"), stopwords=frozenset())
        assert idx.bm25_score("dog", 0) == 0.0

    def test_one_doc_identity(self):
        # tf=1, doc_len=avg_doc_len, df=N=1: score reduces to idf = ln(4/3).
        idx = InvertedIndex.build(_paras("hello"), stopwords=frozenset())
        assert idx.bm25_score("hello", 0) == pytest.approx(math.log(4 / 3))

    def test_unknown_ordinal_errors(self):
        idx = InvertedIndex.build(_paras("cat"), stopwords=frozenset())
        with pytest.raises(UnknownDocumentError):
            idx.bm25_score("cat", 5)

    def test_matches_independent_scalar_oracle_on_f1(self, f1_paragraphs,
                                                     f1_index):
        oracle = BruteForceBm25(f1_paragraphs, k1=0.9, b=0.4,
                                stopwords=f1_index.stopwords)
        doc7 = f1_paragraphs[7].para_id
        for term in ("cat", "river", "stone", "door", "zebra"):
            expected = oracle.term_score(term, doc7)
            got = f1_index.bm25_score(term, f1_index.ordinal(doc7))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_idf_never_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 1000))
            df = int(rng.integers(0, n + 1))
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            assert idf >= 0.0


class TestRetrieve:
    def test_stopword_only_question(self, f1_index):
        assert f1_index.retrieve("the and of", 5).hits == []

    def test_n_zero(self, f1_index):
        assert f1_index.retrieve("cat", 0).hits == []

    def test_f1_matches_exhaustive_oracle(self, f1_paragraphs, f1_index):
        oracle = BruteForceBm25(f1_paragraphs, 0.9, 0.4, f1_index.stopwords)
        for question in ("cat ran", "river stone cloud", "tall tall dog",
                         "lamp book rain wind snow"):
            got = f1_index.retrieve(question, 50).hits
            expected = oracle.retrieve(question, 50)
            assert [pid for pid, _ in got] == [pid for pid, _ in expected]
            for (_, gs), (_, es) in zip(got, expected):
                assert gs == pytest.approx(es, rel=1e-9)

    def test_prefix_monotonicity(self, f1_index):
        full = f1_index.retrieve("cat ran blue", 50).hits
        for n in range(len(full) + 1):
            assert f1_index.retrieve("cat ran blue", n).hits == full[:n]

    def test_scores_positive_and_sorted(self, f1_index):
        hits = f1_index.retrieve("cat dog fish", 50).hits
        assert all(s > 0 for _, s in hits)
        keys = [(-s, pid) for pid, s in hits]
        assert keys == sorted(keys)

    def test_ties_across_the_cut_break_by_para_id(self):
        # Five strong documents, then thirty that tie exactly, in a build
        # order unrelated to para_id order; every n from 6 to 34 cuts
        # through the tie, so para_id alone decides who survives.
        rng = np.random.default_rng(7)
        ids = [f"t{i:02d}" for i in range(30)] + [f"s{i}" for i in range(5)]
        rng.shuffle(ids)
        paras = [Paragraph(pid, "a", "",
                           "cat cat dog" if pid[0] == "s" else "cat dog", 0)
                 for pid in ids]
        paras += [Paragraph(f"u{i}", "a", "", "bird fish", 0)
                  for i in range(10)]
        idx = InvertedIndex.build(paras, stopwords=frozenset())
        oracle = BruteForceBm25(paras, 0.9, 0.4, frozenset())
        full = oracle.retrieve("cat", 100)
        assert len(full) == 35
        assert len({s for _, s in full[5:]}) == 1
        for n in (1, 5, 6, 7, 20, 34, 35, 36, 100):
            got = idx.retrieve("cat", n).hits
            assert [pid for pid, _ in got] == [pid for pid, _ in full[:n]]

    def test_query_term_multiplicity_multiplies(self, f1_index):
        single = {pid: s for pid, s in f1_index.retrieve("cat", 50).hits}
        double = {pid: s for pid, s in f1_index.retrieve("cat cat", 50).hits}
        assert set(single) == set(double)
        for pid, s in single.items():
            assert double[pid] == pytest.approx(2 * s, rel=1e-12)


class TestRetrieveWeighted:
    def test_single_term_matches_plain_retrieve(self, f1_index):
        plain = f1_index.retrieve("cat", 20).hits
        weighted = f1_index.retrieve_weighted(QueryVector({"cat": 7.5}), 20).hits
        assert [pid for pid, _ in weighted] == [pid for pid, _ in plain]
        for (_, ws), (_, ps) in zip(weighted, plain):
            assert ws == pytest.approx(ps, rel=1e-12)

    def test_empty_and_nonpositive_vectors(self, f1_index):
        assert f1_index.retrieve_weighted(QueryVector({}), 5).hits == []
        assert f1_index.retrieve_weighted(
            QueryVector({"cat": -1.0, "dog": 0.0}), 5).hits == []

    def test_negative_weights_dropped_not_subtracted(self, f1_index):
        pos_only = f1_index.retrieve_weighted(QueryVector({"cat": 1.0}), 50)
        mixed = f1_index.retrieve_weighted(
            QueryVector({"cat": 1.0, "dog": -5.0}), 50)
        assert mixed.hits == pos_only.hits

    def test_matches_exhaustive_weighted_oracle(self, f1_paragraphs,
                                                f1_index):
        oracle = BruteForceBm25(f1_paragraphs, 0.9, 0.4, f1_index.stopwords)
        weights = {"cat": 2.0, "river": 0.5, "tall": 1.25, "dog": -1.0}
        got = f1_index.retrieve_weighted(QueryVector(weights), 50).hits
        expected = oracle.retrieve_weighted(weights, 50)
        assert [pid for pid, _ in got] == [pid for pid, _ in expected]
        for (_, gs), (_, es) in zip(got, expected):
            assert gs == pytest.approx(es, rel=1e-9)


class TestDocTfidfTop:
    def test_zero_terms(self, f1_index, f1_paragraphs):
        assert f1_index.doc_tfidf_top(f1_paragraphs[0].para_id, 0).weights == {}

    def test_hand_counted(self):
        idx = InvertedIndex.build(_paras("cat cat dog"),
                                  stopwords=frozenset())
        vec = idx.doc_tfidf_top("d0", 1)
        assert set(vec.weights) == {"cat"}
        assert vec.weights["cat"] == pytest.approx(2 * idx.idf("cat"))

    def test_tie_break_is_lexicographic(self):
        idx = InvertedIndex.build(_paras("dog cat dog cat bird"),
                                  stopwords=frozenset())
        vec = idx.doc_tfidf_top("d0", 3)
        # tf: cat=2, dog=2, bird=1; ties on tf resolve alphabetically.
        assert list(vec.weights) == ["cat", "dog", "bird"]

    def test_matches_count_and_weight_oracle_on_f1(self, f1_paragraphs,
                                                   f1_index):
        oracle = BruteForceBm25(f1_paragraphs, 0.9, 0.4, f1_index.stopwords)
        pid = f1_paragraphs[7].para_id
        got = f1_index.doc_tfidf_top(pid, 5).weights
        counts = oracle.docs[pid]
        expect_terms = sorted(counts, key=lambda t: (-counts[t], t))[:5]
        assert list(got) == expect_terms
        for term in expect_terms:
            assert got[term] == pytest.approx(
                counts[term] * oracle.idf(term), rel=1e-12)

    def test_unknown_para_id_errors(self, f1_index):
        with pytest.raises(UnknownDocumentError):
            f1_index.doc_tfidf_top("nope#0", 5)


class TestRandomizedOracleEquivalence:
    """Smaller-scale version of the acceptance sweep: rankings and scores
    match the brute-force scorer on random corpora."""

    def test_random_corpora(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            paragraphs, stopwords = make_random_corpus(rng)
            idx = InvertedIndex.build(paragraphs, stopwords=stopwords)
            oracle = BruteForceBm25(paragraphs, 0.9, 0.4, stopwords)
            vocab = ["cat", "dog", "bird", "fish", "ran", "sat", "hill",
                     "tree", "zzz"]
            question = " ".join(vocab[int(rng.integers(len(vocab)))]
                                for _ in range(int(rng.integers(1, 9))))
            n = int(rng.integers(1, 60))
            got = idx.retrieve(question, n).hits
            expected = oracle.retrieve(question, n)
            assert [p for p, _ in got] == [p for p, _ in expected]
            for (_, gs), (_, es) in zip(got, expected):
                assert gs == pytest.approx(es, rel=1e-9)


class TestPersistence:
    def test_save_load_logical_equality(self, f1_paragraphs, f1_index,
                                        tmp_path):
        f1_index.save(tmp_path / "idx")
        loaded = InvertedIndex.load(tmp_path / "idx")
        assert loaded.doc_count == f1_index.doc_count
        assert loaded.avg_doc_len == f1_index.avg_doc_len
        assert loaded.build_checksum == f1_index.build_checksum
        for term in ("cat", "river", "book"):
            assert loaded.doc_freq(term) == f1_index.doc_freq(term)
        q = "cat ran stone"
        assert loaded.retrieve(q, 20).hits == f1_index.retrieve(q, 20).hits

    def test_manifest_fields(self, f1_index, tmp_path):
        import json
        f1_index.save(tmp_path / "idx")
        manifest = json.loads(
            (tmp_path / "idx" / "manifest.json").read_text("utf-8"))
        assert manifest["format_version"] == 2
        assert manifest["k1"] == 0.9 and manifest["b"] == 0.4
        assert manifest["doc_count"] == f1_index.doc_count
        assert manifest["avg_doc_len"] == f1_index.avg_doc_len
        assert len(manifest["stopword_sha256"]) == 64
        assert manifest["build_checksum"] == f1_index.build_checksum

    def test_corrupt_payload_detected(self, f1_index, tmp_path):
        import json
        f1_index.save(tmp_path / "idx")
        strings = tmp_path / "idx" / "strings.json"
        data = json.loads(strings.read_text("utf-8"))
        data["doc_ids"][0] = "tampered#0"
        strings.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(IndexBuildError, match="checksum"):
            InvertedIndex.load(tmp_path / "idx")

    def test_truncated_arrays_are_an_index_error(self, f1_index, tmp_path):
        f1_index.save(tmp_path / "idx")
        arrays = tmp_path / "idx" / "arrays.npz"
        payload = arrays.read_bytes()
        arrays.write_bytes(payload[:len(payload) // 2])
        with pytest.raises(IndexBuildError, match="arrays.npz"):
            InvertedIndex.load(tmp_path / "idx")

    def test_missing_array_is_named(self, f1_index, tmp_path):
        f1_index.save(tmp_path / "idx")
        path = tmp_path / "idx" / "arrays.npz"
        with np.load(path) as archive:
            kept = {name: archive[name] for name in archive.files
                    if name != "doc_tfs"}
        np.savez(path, **kept)
        with pytest.raises(IndexBuildError,
                           match="arrays.npz has no array 'doc_tfs'"):
            InvertedIndex.load(tmp_path / "idx")

    def test_damaged_member_is_an_index_error(self, f1_index, tmp_path):
        f1_index.save(tmp_path / "idx")
        path = tmp_path / "idx" / "arrays.npz"
        payload = bytearray(path.read_bytes())
        # A data byte of the last member, past its 128-byte .npy header.
        payload[payload.rindex(b"\x93NUMPY") + 200] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(IndexBuildError, match="arrays.npz.*CRC"):
            InvertedIndex.load(tmp_path / "idx")

    def test_format_version_guard(self, f1_index, tmp_path):
        import json
        f1_index.save(tmp_path / "idx")
        mpath = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(mpath.read_text("utf-8"))
        manifest["format_version"] = 99
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexBuildError, match="format_version"):
            InvertedIndex.load(tmp_path / "idx")
