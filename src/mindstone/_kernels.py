"""Numeric inner loops for retrieval and span scoring, in numpy.

``bm25_accumulate`` adds each query term's postings into a score vector,
``w * (tf * (k1+1)) / den`` per posting. The index derives each posting's
denominator ``den = tf + norm[doc]`` once, so the kernel reads it in posting
order instead of gathering ``norm`` at random document ids; the operations
and their order are those of ``w * (tf * (k1+1)) / (tf + norm[doc])``, so
the scores are bit-identical to that formula (kept in
``tests/test_kernels.py`` as the oracle).
``span_score_matrix`` scores every token window of a paragraph in one
banded prefix-sum pass: a cumsum along the rows of two masked
(L x band width) bands, with no Python loop over window lengths or
offsets. Its output is bit-identical to the position-at-a-time loop it
replaced (kept in ``tests/test_kernels.py`` as the oracle), because cumsum
adds in the same left-to-right order and the padding outside the paragraph
is exact zeros.

Callers look the kernels up as module attributes (``_kernels.bm25_accumulate``)
so a profiler can wrap them in place. ``benchmarks/bench_kernels.py`` times
them on synthetic arrays and on a retrieval batch over the F2 fixture.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel backend, recorded in benchmark provenance."""
    return "numpy"


def bm25_accumulate(term_starts, term_ends, doc_ids, tfs, term_weights, den,
                    k1p1, scores):
    """Accumulate BM25 contributions for each query term into ``scores``.

    Postings for query term ``q`` live in
    doc_ids/tfs/den[term_starts[q]:term_ends[q]]; ``den`` holds each
    posting's denominator ``tf + norm[doc]``, and term_weights[q] already
    folds together query weight and idf.
    """
    for q in range(term_starts.shape[0]):
        s, e = term_starts[q], term_ends[q]
        if s == e:
            continue
        scores[doc_ids[s:e]] += term_weights[q] * (tfs[s:e] * k1p1) / den[s:e]


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

    One banded prefix-sum pass, no loop over ``ell`` or offsets. Row i of
    the window band holds positions i .. i+max_len-1, each weight kept
    where ``prev[p] < i``; row i of the context band holds positions
    i-r .. i+max_len-1+r (r = ctx_radius), kept where
    ``prev[p] < max(i-r, 0)``, and exact zeros outside [0, L). Both bands
    are strided views of zero-padded copies of the inputs. A cumsum along
    each row gives the window sum for ``ell`` in window column ell-1 and
    the context sum in context column 2r+ell-1.

    The result is bit-identical to adding the terms one position at a time
    from 0.0: cumsum adds left to right in that same order (no pairwise or
    blocked summation), and an exact zero leaves a running sum unchanged.
    The window sum's first term gets the ``0.0 +`` the loop starts with,
    which turns a -0.0 weight into 0.0; a -0.0 context sum is only ever
    added to a window sum that is not -0.0, so it needs none.
    """
    L = win_w.shape[0]
    out.fill(-np.inf)
    if L == 0:
        return
    r = ctx_radius
    width = 2 * r + max_len
    padded = np.zeros((2, L + width - 1))
    padded[0, r:r + L] = win_w
    padded[1, r:r + L] = ctx_w
    padded_prev = np.zeros(L + width - 1, dtype=np.int64)
    padded_prev[r:r + L] = prev
    # Row i, column k of a band is padded position i + k, i.e. token i-r+k.
    # np.ndarray rather than as_strided: it checks that the strides stay
    # inside the buffer, and it builds no helper objects per call.
    step = padded.strides[1]
    w_band = np.ndarray((2, L, width), padded.dtype, padded,
                        strides=(padded.strides[0], step, step))
    p_step = padded_prev.strides[0]
    p_band = np.ndarray((L, width), padded_prev.dtype, padded_prev,
                        strides=(p_step, p_step))
    starts = np.arange(L)[:, None]
    win = w_band[0, :, r:r + max_len] * (p_band[:, r:r + max_len] < starts)
    ctx = w_band[1] * (p_band < np.maximum(starts - r, 0))
    win[:, 0] += 0.0  # the loop's 0.0 + first term
    np.cumsum(win, axis=1, out=win)
    np.cumsum(ctx, axis=1, out=ctx)
    ctx = ctx[:, 2 * r:]
    ctx *= ctx_weight
    win += ctx
    ells = np.arange(1, max_len + 1)
    win -= penalty * ells
    np.copyto(out[:, :max_len], win, where=ells <= L - starts)
