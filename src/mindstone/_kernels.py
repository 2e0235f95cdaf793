"""Numeric inner loops for retrieval and span scoring, in numpy.

Callers look the kernels up as module attributes (``_kernels.bm25_accumulate``)
so a profiler can wrap them in place. ``benchmarks/bench_kernels.py`` times
them on synthetic arrays and on a retrieval batch over the F2 fixture.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend, recorded in benchmark provenance."""
    return "numpy"


def bm25_accumulate(term_starts, term_ends, doc_ids, tfs, term_weights, norm,
                    k1p1, scores):
    """Accumulate BM25 contributions for each query term into ``scores``.

    Postings for query term ``q`` live in doc_ids/tfs[term_starts[q]:term_ends[q]];
    term_weights[q] already folds together query weight and idf.
    """
    for q in range(term_starts.shape[0]):
        s, e = term_starts[q], term_ends[q]
        if s == e:
            continue
        ids = doc_ids[s:e]
        tf = tfs[s:e]
        scores[ids] += term_weights[q] * (tf * k1p1) / (tf + norm[ids])


def span_score_matrix(win_w, ctx_w, prev, max_len, ctx_radius, ctx_weight,
                      penalty, out):
    """Score all token windows [i, i+ell), ell = 1..max_len.

    ``win_w[p]`` weights position p's token inside a window; ``ctx_w[p]``
    weights it in the surrounding context; ``prev[p]`` is the index of the
    previous occurrence of the same token, or -1, so each distinct token
    counts once per window / context range (at its first occurrence).

    out[i, ell-1] = sum of win_w over distinct tokens in the window
                    + ctx_weight * sum of ctx_w over distinct tokens in
                      [i-ctx_radius, i+ell+ctx_radius)
                    - penalty * ell
    Invalid windows (i + ell > L) stay at -inf.
    """
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
