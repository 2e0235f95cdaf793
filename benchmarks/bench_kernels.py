"""Time the two numeric kernels and a BM25 retrieval batch.

Times BM25 postings accumulation over synthetic postings shaped like a
desk-scale corpus, span scoring over one synthetic paragraph (by default
384 tokens, the reader's token limit), and a retrieval batch over the frozen
F2 fixture.

    python3 benchmarks/bench_kernels.py [--docs 50000] [--span-tokens 384]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mindstone import _kernels  # noqa: E402


def time_fn(fn, *args, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def bench_bm25(n_docs: int, n_terms: int, rng) -> tuple[float, int]:
    # Zipf-ish document frequencies over query terms.
    dfs = np.minimum((rng.pareto(1.2, size=n_terms) * 0.02 * n_docs + 5)
                     .astype(np.int64), n_docs)
    starts, ends, ids, tfs = [], [], [], []
    for df in dfs:
        docs = np.sort(rng.choice(n_docs, size=int(df), replace=False))
        starts.append(len(ids))
        ids.extend(docs.tolist())
        tfs.extend(rng.integers(1, 6, size=int(df)).tolist())
        ends.append(len(ids))
    starts = np.array(starts, dtype=np.int64)
    ends = np.array(ends, dtype=np.int64)
    ids = np.array(ids, dtype=np.int64)
    tfs = np.array(tfs, dtype=np.float64)
    weights = rng.uniform(0.5, 4.0, size=n_terms)
    norm = rng.uniform(0.5, 1.5, size=n_docs)

    scores = np.zeros(n_docs)

    def run():
        scores.fill(0.0)  # the kernel accumulates into its output
        _kernels.bm25_accumulate(starts, ends, ids, tfs, weights, norm, 1.9,
                                 scores)

    return time_fn(run), len(ids)


def bench_spans(length: int, rng) -> float:
    win_w = np.where(rng.random(length) < 0.1,
                     rng.uniform(1.0, 4.0, size=length), 0.0)
    ctx_w = np.where(rng.random(length) < 0.15,
                     rng.uniform(0.5, 4.0, size=length), 0.0)
    tokens = rng.integers(0, max(4, length // 3), size=length)
    prev = np.full(length, -1, dtype=np.int64)
    last: dict[int, int] = {}
    for i, t in enumerate(tokens.tolist()):
        if t in last:
            prev[i] = last[t]
        last[t] = i

    mat = np.empty((length, 30))
    return time_fn(_kernels.span_score_matrix, win_w, ctx_w, prev, 30, 15,
                   0.5, 0.3, mat)


def bench_fixture_retrieval(n_queries: int) -> float | None:
    fixtures = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
    para_file = fixtures / "f2_paragraphs.jsonl"
    q_file = fixtures / "f2_questions.jsonl"
    if not para_file.exists():
        return None
    from mindstone.corpus import read_paragraphs
    from mindstone.eval import read_questions
    from mindstone.index import InvertedIndex

    index = InvertedIndex.build(read_paragraphs(para_file))
    records, _ = read_questions(q_file)
    questions = [r.question for r in records]
    questions = (questions * ((n_queries // len(questions)) + 1))[:n_queries]

    index.retrieve(questions[0], 100)  # warm
    start = time.perf_counter()
    for q in questions:
        index.retrieve(q, 100)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=50_000)
    parser.add_argument("--terms", type=int, default=8)
    parser.add_argument("--span-tokens", type=int, default=384)
    parser.add_argument("--queries", type=int, default=300)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    seconds, postings = bench_bm25(args.docs, args.terms, rng)
    label = f"bm25 accumulate ({args.docs} docs, {postings} postings)"
    print(f"{label:<44} {seconds * 1000:9.3f} ms")

    seconds = bench_spans(args.span_tokens, rng)
    label = f"span scores ({args.span_tokens} tokens x 30)"
    print(f"{label:<44} {seconds * 1000:9.3f} ms")

    seconds = bench_fixture_retrieval(args.queries)
    if seconds is not None:
        print(f"F2 retrieval batch, {args.queries} queries, n=100: "
              f"{seconds:.3f} s total "
              f"({seconds / args.queries * 1000:.3f} ms/query)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
