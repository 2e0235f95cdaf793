"""Inverted index: BM25 scoring, retrieval, persistence.

Retrieval answers are checked against BruteForceBm25 — an exhaustive
from-scratch evaluator that shares no code with the index path.
"""

import json
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BruteForceBm25, make_random_corpus
from mindstone.corpus import DEFAULT_STOPWORDS, Paragraph, tokenize
from mindstone.errors import IndexBuildError, UnknownDocumentError
from mindstone.index import (_ROW_ARRAYS, Bm25Params, InvertedIndex,
                             QueryVector, _stable_argsort)


def _paras(*bodies, title=""):
    return [Paragraph(f"d{i}", f"a{i}", title, b, 0)
            for i, b in enumerate(bodies)]


def _counter_build(paragraphs, params=Bm25Params(),
                   stopwords=DEFAULT_STOPWORDS):
    """The per-paragraph Counter build that ``InvertedIndex.build`` replaced,
    with documents in para_id order: the oracle of its array build."""
    doc_ids = []
    seen = set()
    doc_counts = []
    vocab = set()
    for para in sorted(paragraphs, key=lambda p: p.para_id):
        if para.para_id in seen:
            raise IndexBuildError(f"duplicate para_id: {para.para_id!r}")
        seen.add(para.para_id)
        doc_ids.append(para.para_id)
        counts = Counter(tokenize(para.full_text, stopwords))
        doc_counts.append(counts)
        vocab.update(counts)

    terms = sorted(vocab)
    term_id = {t: i for i, t in enumerate(terms)}
    doc_offsets = np.zeros(len(doc_ids) + 1, dtype=np.int64)
    doc_term_ids = []
    doc_tfs = []
    for i, counts in enumerate(doc_counts):
        for term in sorted(counts):
            doc_term_ids.append(term_id[term])
            doc_tfs.append(counts[term])
        doc_offsets[i + 1] = len(doc_term_ids)

    return InvertedIndex(params=params, stopwords=stopwords, doc_ids=doc_ids,
                         terms=terms, doc_offsets=doc_offsets,
                         doc_term_ids=doc_term_ids, doc_tfs=doc_tfs)


# Words whose raw forms share a lowercase form, capitalised stopwords, and
# characters whose lowercase differs in length or category: "İ" lowers to
# "i" plus a combining dot, "ẞ" to "ß", titlecase "ǅ" to "ǆ"; combining
# marks, digits and fullwidth letters are token characters.
_WORDS = ["Cat", "CAT", "cat", "cAt", "The", "THE", "the", "AND", "And",
          "İstanbul", "istanbul", "İ", "i\u0307", "ẞ", "ß", "SS", "ǅemal",
          "ǆemal", "Ǆemal", "e\u0301", "é", "É", "x1", "42", "٤٢", "ｃａｔ",
          "ＣＡＴ", "Σ", "σ", "ς", "ﬁne", "Ⅻ"]
_SEPARATORS = [" ", "  ", "\n", "_", "__", ", ", "-", "\u00a0", "\t", "."]
_TEXT = (st.lists(st.tuples(st.sampled_from(_WORDS),
                            st.sampled_from(_SEPARATORS)), max_size=25)
         .map(lambda pairs: "".join(w + sep for w, sep in pairs))
         | st.text(max_size=40))
_STOPWORDS = st.sampled_from([DEFAULT_STOPWORDS, frozenset(),
                              frozenset({"cat", "i\u0307", "ß", "é", "σ"})])


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

    def test_build_checksum_is_pinned(self, f1_index, f2_index):
        assert f1_index.build_checksum == (
            "790483045e9be23eca7b3c1b46d550d270baad9de17daee75a178f02d917470d")
        assert f2_index.build_checksum == (
            "1032143b2b7912d78e793712547ddf958782e006c9249303a503b0f8f57aa198")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_postings_derived_from_rows(self, seed):
        rng = np.random.default_rng(seed)
        paragraphs, stopwords = make_random_corpus(rng)
        idx = InvertedIndex.build(paragraphs, stopwords=stopwords)
        # Reference postings and lengths from per-document Counters, with
        # documents in para_id order.
        docs = BruteForceBm25(paragraphs, 0.9, 0.4, stopwords).docs
        assert idx._doc_ids == sorted(p.para_id for p in paragraphs)
        counts = [docs[pid] for pid in idx._doc_ids]
        terms = sorted(set().union(*counts))
        plists = [[(d, c[t]) for d, c in enumerate(counts) if t in c]
                  for t in terms]
        assert idx._term_offsets.tolist() == np.cumsum(
            [0] + [len(pl) for pl in plists]).tolist()
        assert idx._post_doc_ids.tolist() == [d for pl in plists
                                              for d, _ in pl]
        assert idx._post_tfs.tolist() == [tf for pl in plists for _, tf in pl]
        assert idx._doc_len.tolist() == [sum(c.values()) for c in counts]
        for arr, dtype in ((idx._term_offsets, np.int64),
                           (idx._post_doc_ids, np.int64),
                           (idx._post_tfs, np.float64),
                           (idx._doc_len, np.int64)):
            assert arr.dtype == dtype

        with tempfile.TemporaryDirectory() as tmp:
            idx.save(tmp)
            loaded = InvertedIndex.load(tmp)
        assert loaded.build_checksum == idx.build_checksum
        assert all(loaded.doc_freq(t) == len(pl)
                   for t, pl in zip(terms, plists))
        question = " ".join(rng.choice(terms + ["zzz"], size=4))
        assert (loaded.retrieve(question, 60).hits
                == idx.retrieve(question, 60).hits)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["", "The", "Cat", "AND the"]),
                              _TEXT | st.sampled_from(["", "the AND Of",
                                                       "_ - ,"])),
                    max_size=8),
           _STOPWORDS)
    def test_build_equals_counter_oracle(self, texts, stopwords):
        # Para_ids in reverse of input order, so the build must sort.
        paragraphs = [Paragraph(f"d{len(texts) - i}", "a", title, body, i)
                      for i, (title, body) in enumerate(texts)]
        idx = InvertedIndex.build(paragraphs, stopwords=stopwords)
        oracle = _counter_build(paragraphs, stopwords=stopwords)
        assert idx.build_checksum == oracle.build_checksum
        assert idx._terms == oracle._terms
        for name in ("_doc_offsets", "_doc_term_ids", "_doc_tfs"):
            got, want = getattr(idx, name), getattr(oracle, name)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist(), name
        # The readers of the narrow rows: top terms by count, then term.
        for para in paragraphs:
            counts = Counter(tokenize(para.full_text, stopwords))
            top = sorted(counts, key=lambda t: (-counts[t], t))[:3]
            vec = idx.doc_tfidf_top(para.para_id, 3)
            assert vec == oracle.doc_tfidf_top(para.para_id, 3)
            assert vec.weights == {t: counts[t] * idx.idf(t) for t in top}
            assert list(vec.weights) == top
            ordinal = idx.ordinal(para.para_id)
            assert idx.matches_text(ordinal, para.full_text)
            assert oracle.matches_text(ordinal, para.full_text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=12), _TEXT | st.text()),
                    max_size=6),
           _STOPWORDS)
    def test_every_build_loads_as_built(self, texts, stopwords):
        """Whatever Unicode text it indexes, a build writes only terms and
        rows that load accepts, and loads back holding the same rows, which
        save writes to the same bytes."""
        paragraphs = [Paragraph(f"d{i}", "a", title, body, i)
                      for i, (title, body) in enumerate(texts)]
        idx = InvertedIndex.build(paragraphs, stopwords=stopwords)
        assert all(t and t == t.lower() for t in idx._terms)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first"), Path(tmp, "second")
            idx.save(first)
            loaded = InvertedIndex.load(first)
            loaded.save(second)
            for name in ("arrays.npz", "strings.json", "manifest.json"):
                assert (first / name).read_bytes() == \
                    (second / name).read_bytes(), name
        assert loaded.build_checksum == idx.build_checksum
        for name in ("_doc_offsets", "_doc_term_ids", "_doc_tfs",
                     "_post_doc_ids", "_post_tfs"):
            got, want = getattr(loaded, name), getattr(idx, name)
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name

    def test_params_validated(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=0.0)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)


@st.composite
def _sort_keys(draw):
    """A key bound (at and around the 16-bit digit edges, or any up to
    2**40) and keys below it, many of them tied."""
    bound = draw(st.sampled_from([1, 2, 300, 2**16, 2**16 + 1, 2**32 + 1,
                                  10**6, 2**40])
                 | st.integers(1, 2**40))
    pool = draw(st.lists(st.integers(0, bound - 1), min_size=1, max_size=8))
    keys = draw(st.lists(st.sampled_from(pool + [0, bound - 1])
                         | st.integers(0, bound - 1), max_size=300))
    return np.array(keys, dtype=np.int64), bound


class TestStableArgsort:
    @settings(max_examples=300, deadline=None)
    @given(_sort_keys())
    def test_equals_numpy_stable_argsort(self, case):
        keys, bound = case
        assert _stable_argsort(keys, bound).tolist() == np.argsort(
            keys, kind="stable").tolist()

    @pytest.mark.parametrize("bound", [1, 2, 300, 2**16, 2**16 + 1, 10**6,
                                       2**40])
    def test_random_keys(self, bound):
        """20,000 keys, longer than any the property draws."""
        keys = np.random.default_rng(bound).integers(0, bound, 20_000)
        assert (_stable_argsort(keys, bound)
                == np.argsort(keys, kind="stable")).all()


class TestBm25Score:
    """One term's BM25 contribution, read as single-term retrieval scores
    and compared with the scalar oracle."""

    def test_absent_term_scores_zero(self):
        paras = _paras("cat sat")
        idx = InvertedIndex.build(paras, stopwords=frozenset())
        oracle = BruteForceBm25(paras, 0.9, 0.4, frozenset())
        assert oracle.term_score("dog", "d0") == 0.0
        assert idx.retrieve("dog", 5).hits == []

    def test_one_doc_identity(self):
        # tf=1, doc_len=avg_doc_len, df=N=1: score reduces to idf = ln(4/3).
        paras = _paras("hello")
        idx = InvertedIndex.build(paras, stopwords=frozenset())
        oracle = BruteForceBm25(paras, 0.9, 0.4, frozenset())
        [(pid, score)] = idx.retrieve("hello", 5).hits
        assert pid == "d0"
        assert score == pytest.approx(math.log(4 / 3))
        assert score == pytest.approx(oracle.term_score("hello", "d0"),
                                      rel=1e-12)

    def test_unknown_ordinal_errors(self):
        idx = InvertedIndex.build(_paras("cat"), stopwords=frozenset())
        with pytest.raises(UnknownDocumentError):
            idx.matches_text(5, "cat")

    def test_matches_independent_scalar_oracle_on_f1(self, f1_paragraphs,
                                                     f1_index):
        oracle = BruteForceBm25(f1_paragraphs, k1=0.9, b=0.4,
                                stopwords=f1_index.stopwords)
        doc7 = f1_paragraphs[7].para_id
        for term in ("cat", "river", "stone", "door", "zebra"):
            expected = oracle.term_score(term, doc7)
            hits = dict(f1_index.retrieve(term, f1_index.doc_count).hits)
            got = hits.get(doc7, 0.0)
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


_CUT_SCORES = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]),
                        st.floats(-3.0, 3.0, allow_nan=False))


class TestSeededCut:
    """A seeded top-n cut gives exactly the unseeded hits."""

    @settings(max_examples=400, deadline=None)
    @given(st.permutations(range(24)).flatmap(lambda perm: st.tuples(
        st.just(perm), st.lists(_CUT_SCORES, min_size=24, max_size=24),
        st.lists(st.integers(0, 23), max_size=40), st.integers(0, 28))))
    def test_equals_unseeded_top_n(self, case):
        # Documents in a build order unrelated to para_id order (which is
        # not numeric order either: "p10" sorts before "p2"), scores drawn
        # from a few values (ties across the cut, zeros, negatives), seeds
        # with duplicates, and seeds fewer or more than n. Scores are by
        # ordinal, and ordinals follow para_id order.
        perm, scores, seed, n = case
        idx = InvertedIndex.build(
            [Paragraph(f"p{i}", "a", "", "x", 0) for i in perm])
        ids = sorted(f"p{i}" for i in perm)
        assert idx._doc_ids == ids
        scores = np.array(scores)
        seed_ids = [ids[i] for i in seed]
        got = idx._top_n(scores, n, seed_ids)
        assert got == idx._top_n(scores, n)
        want = sorted((-s, ids[d]) for d, s in enumerate(scores)
                      if s > 0.0)[:n]
        assert got.hits == [(pid, -s) for s, pid in want]

    def test_duplicate_seeds_do_not_raise_the_bound(self):
        idx = InvertedIndex.build(_paras("x", "x", "x", "x"))
        scores = np.array([3.0, 1.0, 2.0, 0.5])
        # Two distinct seeds: too few for n=3, so the cut is not seeded
        # with d0's score 3.0, which would drop d2.
        got = idx._top_n(scores, 3, ["d0", "d0", "d0", "d3"])
        assert got.para_ids() == ["d0", "d2", "d1"]

    def test_unknown_seed_is_an_error(self, f1_index):
        with pytest.raises(UnknownDocumentError):
            f1_index.retrieve_weighted(QueryVector({"cat": 1.0}), 5,
                                       ["nope"])

    def test_seeded_retrieval_matches_oracle(self, f1_paragraphs, f1_index):
        oracle = BruteForceBm25(f1_paragraphs, 0.9, 0.4, f1_index.stopwords)
        first = f1_index.retrieve("cat river", 10).para_ids()
        weights = {"cat": 2.0, "river": 0.5, "tall": 1.25}
        for n in (1, 5, 10, 30):
            got = f1_index.retrieve_weighted(QueryVector(weights), n, first)
            assert got == f1_index.retrieve_weighted(QueryVector(weights), n)
            assert got.para_ids() == [
                pid for pid, _ in oracle.retrieve_weighted(weights, n)]


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
        assert manifest["format_version"] == 5
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
        # The last doc_id, so that the doc_ids still rise.
        data["doc_ids"][-1] = "tampered#0"
        strings.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(IndexBuildError, match="checksum"):
            InvertedIndex.load(tmp_path / "idx")

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s["terms"].append("zebra"),
         "term 'zebra' is in no document"),
        (lambda s: s["doc_ids"].__setitem__(1, s["doc_ids"][0]),
         "doc_ids do not rise strictly at 'd0'"),
        (lambda s: s["doc_ids"].reverse(),
         "doc_ids do not rise strictly at 'd0'"),
        (lambda s: s["terms"].__setitem__(1, s["terms"][0]),
         "terms do not rise strictly at 'cat'"),
        (lambda s: s["stopwords"].insert(1, s["stopwords"][0]),
         "stopwords do not rise strictly at 'a'"),
        (lambda s: s["stopwords"].reverse(),
         "stopwords do not rise strictly at 'will'"),
        (lambda s: s["terms"].__setitem__(0, ""),
         "term '' is not a lowercase token"),
        (lambda s: s["terms"].__setitem__(0, "Cat"),
         "term 'Cat' is not a lowercase token"),
    ], ids=["term_in_no_document", "repeated_doc_id", "doc_ids_out_of_order",
            "repeated_term", "repeated_stopword", "stopwords_out_of_order",
            "empty_term", "unlowered_term"])
    def test_strings_build_cannot_produce_are_refused(self, tmp_path, edit,
                                                       message):
        """Strings that no build writes are refused even when the manifest
        is signed with their checksum."""
        InvertedIndex.build(_paras("cat dog", "cat stone")).save(tmp_path)
        spath = tmp_path / "strings.json"
        strings = json.loads(spath.read_text("utf-8"))
        edit(strings)
        spath.write_text(json.dumps(strings), encoding="utf-8")
        with np.load(tmp_path / "arrays.npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        _resign(tmp_path, strings, arrays)
        with pytest.raises(IndexBuildError) as info:
            InvertedIndex.load(tmp_path)
        assert str(info.value) == f"strings.json: {message}"

    @pytest.mark.parametrize("edit, message", [
        (lambda a, s: a["doc_tfs"].__setitem__(0, 0),
         "arrays.npz: doc_tfs hold a count below 1"),
        (lambda a, s: a["doc_term_ids"].__setitem__(1, 0),
         "arrays.npz: doc_term_ids do not rise within a document"),
        (lambda a, s: a["doc_term_ids"].__setitem__(np.s_[:2], [1, 0]),
         "arrays.npz: doc_term_ids do not rise within a document"),
        (lambda a, s: s["terms"].__setitem__(np.s_[:2], ["dog", "cat"]),
         "strings.json: terms do not rise strictly at 'cat'"),
        (lambda a, s: s["terms"].__setitem__(2, "the"),
         "strings.json: term 'the' is a stopword"),
        (lambda a, s: a.__setitem__("doc_tfs", a["doc_tfs"] + 0.0),
         "arrays.npz: doc_tfs is not a 1-D unsigned integer array"),
        (lambda a, s: a.__setitem__("doc_tfs", a["doc_tfs"] + 0.5),
         "arrays.npz: doc_tfs is not a 1-D unsigned integer array"),
        (lambda a, s: a.__setitem__("doc_tfs",
                                    a["doc_tfs"].astype(np.int64)),
         "arrays.npz: doc_tfs is not a 1-D unsigned integer array"),
        (lambda a, s: a.__setitem__("doc_tfs", a["doc_tfs"].astype(np.uint64)
                                    + np.uint64(2**63)),
         "arrays.npz: doc_tfs hold a value past the int64 range"),
    ], ids=["zero_count", "repeated_term_id", "term_ids_out_of_order",
            "terms_out_of_order", "stopword_term", "float_counts",
            "fractional_counts", "signed_counts", "counts_past_int64"])
    def test_rows_build_cannot_produce_are_refused(self, tmp_path, edit,
                                                   message):
        """Rows and terms that no build writes are refused even when the
        manifest is signed with their checksum."""
        InvertedIndex.build(_paras("cat dog", "cat dog stone")).save(tmp_path)
        spath = tmp_path / "strings.json"
        strings = json.loads(spath.read_text("utf-8"))
        with np.load(tmp_path / "arrays.npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        edit(arrays, strings)
        spath.write_text(json.dumps(strings), encoding="utf-8")
        np.savez(tmp_path / "arrays.npz", **arrays)
        _resign(tmp_path, strings, arrays)
        with pytest.raises(IndexBuildError) as info:
            InvertedIndex.load(tmp_path)
        assert str(info.value) == message

    @pytest.mark.parametrize("texts, dtypes", [
        (["cat " * 300, "dog"], ("uint8", "uint8", "uint16")),
        ([" ".join(f"w{i}" for i in range(65_537))],
         ("uint32", "uint32", "uint8")),
        (["cat dog stone hill"] * 16_384, ("uint32", "uint8", "uint8")),
    ], ids=["count_past_255", "terms_past_65536", "rows_past_65535"])
    def test_wide_rows_round_trip(self, tmp_path, texts, dtypes):
        """Rows are saved in the narrowest unsigned dtype that holds them,
        the dtype the term ids and counts are held in, and a wider one
        loads back the same index."""
        idx = InvertedIndex.build(_paras(*texts))
        assert (str(idx._doc_term_ids.dtype), str(idx._doc_tfs.dtype)) == \
            dtypes[1:]
        idx.save(tmp_path)
        with np.load(tmp_path / "arrays.npz") as archive:
            saved = {name: archive[name] for name in archive.files}
        assert tuple(str(saved[name].dtype) for name in
                     ("doc_offsets", "doc_term_ids", "doc_tfs")) == dtypes
        assert InvertedIndex.load(tmp_path).build_checksum == \
            idx.build_checksum
        np.savez(tmp_path / "arrays.npz", **{
            name: arr.astype(np.uint64) for name, arr in saved.items()})
        loaded = InvertedIndex.load(tmp_path)
        assert loaded.build_checksum == idx.build_checksum
        assert loaded._doc_term_ids.dtype == idx._doc_term_ids.dtype
        assert loaded._doc_tfs.dtype == idx._doc_tfs.dtype

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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_payload_loads_identically_or_is_an_index_error(
            self, f1_index, data):
        with tempfile.TemporaryDirectory() as tmp:
            f1_index.save(tmp)
            name = data.draw(st.sampled_from(["arrays.npz", "manifest.json",
                                              "strings.json"]))
            path = Path(tmp) / name
            if name == "arrays.npz":
                with np.load(path) as archive:
                    arrays = {key: archive[key] for key in archive.files}
                _mutate_rows(arrays, data.draw)
                np.savez(path, **arrays)
            else:
                path.write_bytes(_mutate_json(path.read_bytes(), data.draw))
            try:
                loaded = InvertedIndex.load(tmp)
            except IndexBuildError as exc:
                # A file can pass its own checks and disagree with another.
                assert any(part in str(exc) for part in (
                    "arrays.npz", "manifest.json", "strings.json",
                    "checksum"))
            else:
                assert loaded.build_checksum == f1_index.build_checksum

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_TEXT, min_size=1, max_size=5), _STOPWORDS, st.data())
    def test_resigned_element_edit_is_refused_or_loads_as_built(
            self, bodies, stopwords, data):
        """Change one element of a saved string list or row array and sign
        the manifest with the edited payload's checksum. ``load`` either
        refuses it, naming the file, or returns the index the files
        describe, which holds every invariant a build holds and saves and
        loads back unchanged."""
        idx = InvertedIndex.build(
            [Paragraph(f"d{i}", "a", "", body, i)
             for i, body in enumerate(bodies)], stopwords=stopwords)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            idx.save(tmp / "edited")
            strings = json.loads((tmp / "edited" / "strings.json")
                                 .read_text("utf-8"))
            with np.load(tmp / "edited" / "arrays.npz") as archive:
                arrays = {name: archive[name] for name in archive.files}
            _edit_one_element(strings, arrays, data.draw)
            (tmp / "edited" / "strings.json").write_text(
                json.dumps(strings), encoding="utf-8")
            np.savez(tmp / "edited" / "arrays.npz", **arrays)
            try:
                _resign(tmp / "edited", strings, arrays)
            except (ValueError, IndexError):
                pass  # rows no index can be made of: load must refuse them
            try:
                loaded = InvertedIndex.load(tmp / "edited")
            except IndexBuildError as exc:
                assert str(exc).startswith(("arrays.npz: ",
                                            "strings.json: ")), exc
                return
            assert loaded._doc_ids == strings["doc_ids"]
            assert loaded._terms == strings["terms"]
            assert sorted(loaded.stopwords) == strings["stopwords"]
            for name in _ROW_ARRAYS:
                assert getattr(loaded, "_" + name).tolist() == \
                    arrays[name].tolist(), name
            _check_build_invariants(loaded)
            loaded.save(tmp / "first")
            again = InvertedIndex.load(tmp / "first")
            again.save(tmp / "second")
            for name in ("arrays.npz", "strings.json", "manifest.json"):
                assert (tmp / "first" / name).read_bytes() == \
                    (tmp / "second" / name).read_bytes(), name
            assert json.loads((tmp / "first" / "strings.json").read_text(
                "utf-8")) == strings
        assert again.build_checksum == loaded.build_checksum

    def test_format_version_guard(self, f1_index, tmp_path):
        import json
        f1_index.save(tmp_path / "idx")
        mpath = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(mpath.read_text("utf-8"))
        manifest["format_version"] = 99
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexBuildError, match="format_version"):
            InvertedIndex.load(tmp_path / "idx")

    @pytest.mark.parametrize("version, row_dtypes", [
        (3, (np.int64, np.int64, np.float64)), (4, None)])
    def test_older_format_is_refused(self, f1_index, tmp_path, version,
                                     row_dtypes):
        """A format-3 directory, whose rows are int64 and float64, or a
        format-4 one, whose documents are in input order and whose checksum
        also hashed the derived arrays, must be rebuilt. F1's para_ids are
        in order, so each is F1's index as that format saved it."""
        f1_index.save(tmp_path)
        if row_dtypes:
            np.savez(tmp_path / "arrays.npz", **{
                name: getattr(f1_index, "_" + name).astype(dtype)
                for name, dtype in zip(_ROW_ARRAYS, row_dtypes)})
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text("utf-8"))
        manifest["format_version"] = version
        manifest["build_checksum"] = (
            "0e7cec388795b32f32ad70c97534dcc590c51f7c2487dbd53be86fad4380d8c8")
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexBuildError,
                           match=f"unsupported index format_version "
                                 f"{version}"):
            InvertedIndex.load(tmp_path)

    @pytest.mark.parametrize("field, value, message", [
        ("format_version", True, "expected an integer, got a boolean"),
        ("k1", True, "expected a number, got a boolean"),
        ("b", "0.4", "expected a number, got a string"),
        ("build_checksum", None, "expected a string, got null"),
    ])
    def test_manifest_value_of_another_type_is_named(self, f1_index,
                                                     tmp_path, field, value,
                                                     message):
        f1_index.save(tmp_path / "idx")
        mpath = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(mpath.read_text("utf-8"))
        manifest[field] = value
        mpath.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexBuildError) as info:
            InvertedIndex.load(tmp_path / "idx")
        assert str(info.value) == f"{mpath}: {field}: {message}"

    @pytest.mark.parametrize("name", ["manifest.json", "strings.json",
                                      "arrays.npz"])
    def test_deleted_file_is_named(self, f1_index, tmp_path, name):
        f1_index.save(tmp_path / "idx")
        (tmp_path / "idx" / name).unlink()
        with pytest.raises(IndexBuildError, match=name):
            InvertedIndex.load(tmp_path / "idx")


def _resign(directory, strings, arrays):
    """Sign the index at ``directory`` with the checksum of ``strings`` and
    ``arrays``, as if a build had written them."""
    mpath = directory / "manifest.json"
    manifest = json.loads(mpath.read_text("utf-8"))
    # Counts past the int64 range overflow the int64 document lengths.
    with np.errstate(invalid="ignore"):
        manifest["build_checksum"] = InvertedIndex(
            params=Bm25Params(), stopwords=strings["stopwords"],
            doc_ids=strings["doc_ids"], terms=strings["terms"],
            **arrays).build_checksum
    mpath.write_text(json.dumps(manifest), encoding="utf-8")


def _edit_one_element(strings, arrays, draw):
    """Set one element of a non-empty string list or row array in place:
    a string to another of the index's strings (a repeat, or one out of
    order), to a changed copy, or to any text; a row value to any value of
    its dtype, most often a small one."""
    name = draw(st.sampled_from(sorted(
        name for name, items in (*strings.items(), *arrays.items())
        if len(items))))
    if name in strings:
        items = strings[name]
        i = draw(st.integers(0, len(items) - 1))
        pool = sorted({x for values in strings.values() for x in values})
        items[i] = draw(st.sampled_from(pool)
                        | st.sampled_from([items[i] + "a", items[i][:-1],
                                           items[i].upper(), "", "the"])
                        | st.text(max_size=4))
    else:
        arr = arrays[name]
        top = int(np.iinfo(arr.dtype).max)
        arr[draw(st.integers(0, len(arr) - 1))] = draw(
            st.integers(0, min(int(arr.max()) + 2, top))
            | st.integers(0, top))


def _check_build_invariants(idx):
    """Fail unless ``idx`` holds what every build writes, checked here
    with plain Python."""
    def rising(items):
        return all(a < b for a, b in zip(items, items[1:]))

    assert rising(idx._doc_ids)
    assert rising(idx._terms)
    for term in idx._terms:
        assert term and term == term.lower() and term not in idx.stopwords
    offsets = idx._doc_offsets.tolist()
    term_ids = idx._doc_term_ids.tolist()
    assert len(offsets) == idx.doc_count + 1 and offsets[0] == 0
    assert offsets[-1] == len(term_ids) == len(idx._doc_tfs)
    assert all(tf >= 1 for tf in idx._doc_tfs.tolist())
    for start, end in zip(offsets, offsets[1:]):
        assert rising(term_ids[start:end])
    assert sorted(set(term_ids)) == list(range(len(idx._terms)))


def _mutate_rows(arrays, draw):
    """Edit one saved row array in place: set one entry (a term id, an
    offset or a count to any value of the array's dtype, so most often out
    of range), permute it, shorten it, lengthen it, or change its dtype or
    shape."""
    name = draw(st.sampled_from(sorted(arrays)))
    arr = arrays[name].copy()
    kind = draw(st.sampled_from(["value", "shuffle", "shorten", "lengthen",
                                 "retype", "reshape"]))
    if kind == "value":
        top = int(np.iinfo(arr.dtype).max)
        arr[draw(st.integers(0, len(arr) - 1))] = draw(st.one_of(
            st.integers(0, min(int(arr.max()) + 3, top)),
            st.integers(0, top)))
    elif kind == "shuffle":
        arr = arr[draw(st.permutations(range(len(arr))))]
    elif kind == "shorten":
        i = draw(st.integers(0, len(arr) - 1))
        arr = np.delete(arr, np.s_[i:draw(st.integers(i + 1, len(arr)))])
    elif kind == "lengthen":
        extra = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
        arr = np.append(arr, np.array(extra, dtype=arr.dtype))
    elif kind == "retype":
        arr = arr.astype(draw(st.sampled_from([np.int32, np.float32,
                                               np.uint64])))
    else:
        arr = arr.reshape(-1, 1)
    arrays[name] = arr


_JSON_VALUES = st.sampled_from([None, True, 0, 3, -1.5, 0.4, float("nan"),
                                "", "x", [], ["x"], [1], {}, {"a": 1}])


def _mutate_json(payload, draw):
    """Edit one saved JSON file: cut its bytes short, make it another JSON
    value, drop a field, give a field another value, or change one entry
    of a list field."""
    kind = draw(st.sampled_from(["cut", "replace", "drop", "value",
                                 "entry"]))
    if kind == "cut":
        return payload[:draw(st.integers(0, len(payload) - 1))]
    if kind == "replace":
        return json.dumps(draw(_JSON_VALUES)).encode("utf-8")
    obj = json.loads(payload)
    field = draw(st.sampled_from(sorted(obj)))
    if kind == "drop":
        del obj[field]
    elif kind == "value" or not isinstance(obj[field], list) \
            or not obj[field]:
        obj[field] = draw(_JSON_VALUES)
    else:
        obj[field][draw(st.integers(0, len(obj[field]) - 1))] = draw(
            _JSON_VALUES)
    return json.dumps(obj).encode("utf-8")
