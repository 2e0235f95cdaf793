"""The numpy kernels agree with naive python reference implementations."""

import numpy as np

from mindstone import _kernels


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
            _kernels.bm25_accumulate(starts, ends, ids, tfs, weights, norm,
                                     1.9, got)
            np.testing.assert_allclose(got, expected, rtol=1e-12)


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

    def test_empty_input(self):
        out = np.empty((0, 5))
        _kernels.span_score_matrix(np.zeros(0), np.zeros(0),
                                   np.zeros(0, dtype=np.int64), 5, 15, 0.5,
                                   0.1, out)
        assert out.shape == (0, 5)


def test_backend_reports_name():
    assert _kernels.backend() == "numpy"
