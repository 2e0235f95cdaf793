"""The numpy kernels agree with naive python reference implementations, and
the banded span kernel is bit-identical to the loop kernel it replaced."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindstone import _kernels
from mindstone.scorers import builtin


def _random_postings(rng, n_docs, n_terms):
    term_starts, term_ends = [], []
    doc_ids, tfs = [], []
    for _ in range(n_terms):
        df = int(rng.integers(0, n_docs + 1))
        docs = np.sort(rng.choice(n_docs, size=df, replace=False))
        term_starts.append(len(doc_ids))
        doc_ids.extend(docs.tolist())
        tfs.extend(rng.integers(1, 9, size=df).tolist())
        term_ends.append(len(doc_ids))
    return (np.array(term_starts, dtype=np.int64),
            np.array(term_ends, dtype=np.int64),
            np.array(doc_ids, dtype=np.int64),
            np.array(tfs, dtype=np.float64))


def _reference_bm25(term_starts, term_ends, doc_ids, tfs, weights, norm,
                    k1p1, n_docs):
    scores = [0.0] * n_docs
    for q in range(len(term_starts)):
        for p in range(term_starts[q], term_ends[q]):
            d = int(doc_ids[p])
            tf = float(tfs[p])
            scores[d] += float(weights[q]) * (tf * k1p1) / (tf + float(norm[d]))
    return np.array(scores)


def _formula_bm25(term_starts, term_ends, doc_ids, tfs, term_weights, norm,
                  k1p1, scores):
    """The kernel before per-posting denominators: it gathers ``norm`` at
    each posting's document. The oracle of ``bm25_accumulate``'s bytes."""
    for q in range(term_starts.shape[0]):
        s, e = term_starts[q], term_ends[q]
        if s == e:
            continue
        ids = doc_ids[s:e]
        tf = tfs[s:e]
        scores[ids] += term_weights[q] * (tf * k1p1) / (tf + norm[ids])


class TestBm25Accumulate:
    def test_against_python_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_docs = int(rng.integers(1, 40))
            n_terms = int(rng.integers(1, 8))
            starts, ends, ids, tfs = _random_postings(rng, n_docs, n_terms)
            weights = rng.uniform(0.1, 3.0, size=n_terms)
            norm = rng.uniform(0.3, 2.0, size=n_docs)
            expected = _reference_bm25(starts, ends, ids, tfs, weights,
                                       norm, 1.9, n_docs)
            got = np.zeros(n_docs)
            _kernels.bm25_accumulate(starts, ends, ids, tfs, weights,
                                     tfs + norm[ids], 1.9, got)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_bit_identical_to_norm_gather_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_docs = int(rng.integers(1, 60))
            n_terms = int(rng.integers(1, 10))
            starts, ends, ids, tfs = _random_postings(rng, n_docs, n_terms)
            weights = rng.uniform(1e-4, 5.0, size=n_terms)
            norm = 0.9 * (0.6 + 0.4 * rng.uniform(0.0, 4.0, size=n_docs))
            k1p1 = float(rng.uniform(1.0, 3.0))
            # Accumulate onto a nonzero start, as into a reused vector.
            start = rng.uniform(0.0, 2.0, size=n_docs)
            expected, got = start.copy(), start.copy()
            _formula_bm25(starts, ends, ids, tfs, weights, norm, k1p1,
                          expected)
            _kernels.bm25_accumulate(starts, ends, ids, tfs, weights,
                                     tfs + norm[ids], k1p1, got)
            assert got.tobytes() == expected.tobytes()

    def test_index_scores_bit_identical_to_formula(self, f2_index,
                                                   f2_records):
        idx = f2_index
        k1p1 = idx.params.k1 + 1.0
        for record in f2_records[:50]:
            terms = sorted({t for t in record.question.lower().split()
                            if t in idx._term_id})
            if not terms:
                continue
            tids = [idx._term_id[t] for t in terms]
            starts = idx._term_offsets[tids]
            ends = idx._term_offsets[np.add(tids, 1)]
            weights = idx._idf[tids]
            expected = np.zeros(idx.doc_count)
            _formula_bm25(starts, ends, idx._post_doc_ids, idx._post_tfs,
                          weights, idx._norm, k1p1, expected)
            got = idx._accumulate(dict.fromkeys(terms, 1.0))
            assert got.tobytes() == expected.tobytes()


def _reference_spans(win_w, ctx_w, tokens, max_len, radius, ctx_weight,
                     penalty):
    """Brute-force set-semantics scorer over explicit token slices."""
    L = len(tokens)
    out = np.full((L, max_len), -np.inf)
    weight_of = {}
    for tok, w in zip(tokens, win_w):
        weight_of.setdefault(("w", tok), w)
    for tok, w in zip(tokens, ctx_w):
        weight_of.setdefault(("c", tok), w)
    for i in range(L):
        for ell in range(1, max_len + 1):
            j = i + ell
            if j > L:
                break
            win_terms = set(tokens[i:j])
            lo, hi = max(0, i - radius), min(L, j + radius)
            ctx_terms = set(tokens[lo:hi])
            s = sum(weight_of[("w", t)] for t in win_terms)
            c = sum(weight_of[("c", t)] for t in ctx_terms)
            out[i, ell - 1] = s + ctx_weight * c - penalty * ell
    return out


def _loop_span_scores(win_w, ctx_w, prev, max_len, ctx_radius, ctx_weight,
                      penalty, out):
    """Reference span kernel: one position at a time, growing every window
    by one token per ``ell``. ``span_score_matrix`` must reproduce its
    output bit for bit."""
    L = win_w.shape[0]
    out.fill(-np.inf)
    starts = np.arange(L)
    ci = np.maximum(starts - ctx_radius, 0)
    win = np.zeros(L)
    ctx = np.zeros(L)
    # Context base covers window length 1: positions [i-ctx_radius, i+1+ctx_radius).
    for o in range(-ctx_radius, ctx_radius + 1):
        p = starts + o
        valid = (p >= 0) & (p < L)
        pv = p[valid]
        ctx[valid] += ctx_w[pv] * (prev[pv] < ci[valid])
    for ell in range(1, max_len + 1):
        n = L - ell + 1
        if n <= 0:
            break
        p = starts[:n] + ell - 1
        win[:n] += win_w[p] * (prev[p] < starts[:n])
        if ell > 1:
            # New rightmost context position for the grown window.
            p = starts[:n] + ell - 1 + ctx_radius
            valid = p < L
            pv = p[valid]
            ctx[:n][valid] += ctx_w[pv] * (prev[pv] < ci[:n][valid])
        out[:n, ell - 1] = win[:n] + ctx_weight * ctx[:n] - penalty * ell


def _span_case(tokens, win_by_type, ctx_by_type, max_len, radius,
               ctx_weight=0.5, penalty=0.3):
    """Kernel arguments for a token sequence with per-type weights."""
    prev = np.full(len(tokens), -1, dtype=np.int64)
    last = {}
    for idx, t in enumerate(tokens):
        if t in last:
            prev[idx] = last[t]
        last[t] = idx
    win_w = np.array([win_by_type[t] for t in tokens], dtype=np.float64)
    ctx_w = np.array([ctx_by_type[t] for t in tokens], dtype=np.float64)
    return win_w, ctx_w, prev, max_len, radius, ctx_weight, penalty


@st.composite
def _span_cases(draw):
    L = draw(st.integers(0, 130))
    pattern = draw(st.sampled_from(["distinct", "equal", "repeated"]))
    if pattern == "distinct":
        tokens = list(range(L))
    elif pattern == "equal":
        tokens = [0] * L
    else:
        tokens = draw(st.lists(st.integers(0, 7), min_size=L, max_size=L))
    n_types = max(tokens, default=-1) + 1
    if draw(st.booleans()):
        # Signed zeros and negative weights too: the reader's are >= 0, but
        # the kernel matches the loop on any finite weights.
        weight = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)
    else:
        weight = st.just(0.0)  # all-zero weights
    win_by_type = draw(st.lists(weight, min_size=n_types, max_size=n_types))
    ctx_by_type = draw(st.lists(weight, min_size=n_types, max_size=n_types))
    return _span_case(tokens, win_by_type, ctx_by_type,
                      max_len=draw(st.integers(1, 40)),
                      radius=draw(st.integers(0, 20)),
                      ctx_weight=draw(st.floats(0.0, 2.0)),
                      penalty=draw(st.floats(0.0, 1.0)))


class TestSpanScoreMatrix:
    @staticmethod
    def _arrays(rng, L, n_types):
        tokens = [f"t{int(rng.integers(n_types))}" for _ in range(L)]
        type_win = {t: float(rng.uniform(0, 3)) for t in set(tokens)}
        type_ctx = {t: float(rng.uniform(0, 3)) for t in set(tokens)}
        win_w = np.array([type_win[t] for t in tokens])
        ctx_w = np.array([type_ctx[t] for t in tokens])
        prev = np.full(L, -1, dtype=np.int64)
        last = {}
        for idx, t in enumerate(tokens):
            if t in last:
                prev[idx] = last[t]
            last[t] = idx
        return tokens, win_w, ctx_w, prev

    def test_against_set_semantics_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            L = int(rng.integers(1, 40))
            tokens, win_w, ctx_w, prev = self._arrays(rng, L, 6)
            out = np.empty((L, 8))
            _kernels.span_score_matrix(win_w, ctx_w, prev, 8, 4, 0.5, 0.1,
                                       out)
            expected = _reference_spans(win_w, ctx_w, tokens, 8, 4, 0.5, 0.1)
            np.testing.assert_allclose(out, expected, rtol=1e-12,
                                       atol=1e-12)

    def test_against_set_semantics_reference_at_reader_defaults(self):
        # The builtin reader's span constants, on short paragraphs and at
        # the 384-token limit.
        reader = (builtin.MAX_SPAN_TOKENS, builtin.CTX_RADIUS,
                  builtin.CTX_WEIGHT, builtin.LENGTH_PENALTY)
        rng = np.random.default_rng(11)
        for L in [1, 7, 29, 30, 31, 45, 384]:
            tokens, win_w, ctx_w, prev = self._arrays(rng, L, max(4, L // 3))
            out = np.empty((L, builtin.MAX_SPAN_TOKENS))
            _kernels.span_score_matrix(win_w, ctx_w, prev, *reader, out)
            expected = _reference_spans(win_w, ctx_w, tokens, *reader)
            np.testing.assert_allclose(out, expected, rtol=1e-12,
                                       atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(_span_cases())
    @example(_span_case([3], [2.0, 0, 0, 1.5], [0, 0, 0, 1.0], 30, 15))
    @example(_span_case([0, 1, 0, 2, 1], [1.0, 2.0, 0.5], [0.5, 0.0, 3.0],
                        max_len=8, radius=20))  # L < max_len, radius >= L
    @example(_span_case([0] * 40, [1.0], [2.0], max_len=40, radius=0))
    def test_bit_identical_to_loop_kernel(self, case):
        win_w, ctx_w, prev, max_len, radius, ctx_weight, penalty = case
        L = win_w.shape[0]
        expected = np.empty((L, max_len))
        _loop_span_scores(win_w, ctx_w, prev, max_len, radius, ctx_weight,
                          penalty, expected)
        got = np.empty((L, max_len))
        _kernels.span_score_matrix(win_w, ctx_w, prev, max_len, radius,
                                   ctx_weight, penalty, got)
        assert got.tobytes() == expected.tobytes()

    def test_empty_input(self):
        out = np.empty((0, 5))
        _kernels.span_score_matrix(np.zeros(0), np.zeros(0),
                                   np.zeros(0, dtype=np.int64), 5, 15, 0.5,
                                   0.1, out)
        assert out.shape == (0, 5)


def test_backend_reports_name():
    assert _kernels.backend() == "numpy"
