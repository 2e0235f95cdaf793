"""In-process timings of the cascade's kernels and stages.

Each section that times a path next to another goes through one helper,
``ab``: it runs every path once and exits, naming the paths, unless their
results are equal bit for bit, then times them in pairs, alternating which
path runs first. Each row prints the median and interquartile range of the
per-pair times, and each such section how many pairs its first path won.
Most reference paths are oracles that ``tests/`` keeps, so the bench
needs the test dependencies.

- BM25 accumulation over synthetic postings (``--docs``, ``--terms``), with
  per-posting denominators next to the formula that gathers ``norm`` per
  posting; alternating pairs; exits on any bit difference.
- Span scores at ``--span-tokens`` tokens (30: an F2-sized paragraph; 384:
  the reader's token limit), the banded kernel next to the loop kernel;
  alternating pairs; exits on any bit difference.
- The fusion grid search at F2's shape (100 questions of 3 candidates, 231
  points) next to the per-point loop; alternating pairs; exits on any bit
  difference.
- The ranker's training features over F2's finetune and aug2 (m=100, n=5)
  examples, one call per phase next to the per-pair loop; alternating
  pairs; exits on any bit difference.
- F2 ``read_text`` over the paragraphs the pipeline reads next to the
  per-token loop; alternating pairs; exits on any bit difference.
- The rank pool product over F2's top-100 pools, one ``vecdot`` next to one
  dot per row; alternating pairs; exits on any bit difference. Also the
  warm rank stage (``scorers.rank``) over the same pools, alone, and the
  warm read stage (``scorers.read``) over each question's read slice,
  alone.
- An F2 retrieval batch (``--queries``), alone, and its score pass next to
  the formula; alternating pairs; exits on any bit difference.
- Index build, save and load seconds, saved bytes and the traced memory of
  ``cascadebench``'s set-up order over F2 and a seeded 100k-paragraph
  corpus; exits if a loaded checksum differs from its build's.
- The postings sort, ``_stable_argsort`` next to
  ``np.argsort(kind="stable")``, also over keys past 16 bits; alternating
  pairs; exits on any bit difference.
- Echo scorer spawn plus hello, pinned to one CPU: the start-up every
  external-scorer spawn and respawn pays.
- The F2 read stage over each question's read slice with the echo scorer
  as reader, at protocol 2 (one ``read_batch`` request per slice) next to
  protocol 1 (one ``read`` request per paragraph), pinned to one CPU with
  both scorers; alternating pairs; exits on any bit difference.
- ``answer_batch`` over F2's questions with a protocol-2 ``ScorerPool``
  reader that busy-waits ``--fanout-ms`` per text, next to answering them
  one by one; alternating pairs; exits on any bit difference.

    python3 benchmarks/bench_kernels.py [--docs 50000] [--span-tokens 30 384]
        [--fanout-ms 0 1 5]
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from mindstone import _kernels, fusion  # noqa: E402
from mindstone.eval import GoldRecord  # noqa: E402
from mindstone.pipeline import SpanCandidate  # noqa: E402
from test_fusion import _loop_tune_weights, _StubPipeline  # noqa: E402
from test_kernels import _formula_bm25, _loop_span_scores  # noqa: E402
from test_scorers import _loop_features, _loop_read_text  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
# Paragraphs of the seeded synthetic corpus the index section builds.
SYNTH_PARAGRAPHS = 100_000


def bits(result) -> str:
    """``result`` as text that two results share only when their numbers
    are equal bit for bit: arrays and numpy scalars become Python numbers,
    tuples and dataclasses lists, and a float's ``repr`` round-trips."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, (np.ndarray, np.generic)):
        result = result.tolist()
    if isinstance(result, (list, tuple)):
        return "[" + ", ".join(map(bits, result)) + "]"
    return repr(result)


def ab(paths: dict, calls: list[tuple], pairs: int = 10, repeat: int = 1
       ) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    """Time each ``name -> fn`` over ``calls`` (argument tuples). Every path
    first runs once over the calls; unless their results have the same
    ``bits``, this exits naming the paths. Then each of ``pairs`` pairs runs
    every path ``repeat`` times over the calls, in order in even pairs and
    reversed in odd ones, so drift hits them alike. Returns each path's
    seconds per call, one entry per pair, and the pairs in which it alone
    was fastest."""
    def run(fn):
        return [fn(*call) for call in calls]

    names = list(paths)
    first, *rest = (bits(run(paths[name])) for name in names)
    if any(other != first for other in rest):
        raise SystemExit(f"{' and '.join(names)} differ: results not "
                         "bit-identical")
    times = {name: np.empty(pairs) for name in names}
    for i in range(pairs):
        for name in names[::-1] if i % 2 else names:
            start = time.perf_counter()
            for _ in range(repeat):
                run(paths[name])
            times[name][i] = ((time.perf_counter() - start)
                              / (repeat * len(calls)))
    stacked = np.array(list(times.values()))
    best = stacked.min(axis=0)
    alone = (stacked == best).sum(axis=0) == 1
    return times, {name: int(((t == best) & alone).sum())
                   for name, t in times.items()}


def describe(times: np.ndarray, unit: str = "ms") -> str:
    """Median and interquartile range of ``times`` (seconds) in ms or us."""
    scale, digits = {"ms": (1e3, 3), "us": (1e6, 2)}[unit]
    q1, med, q3 = np.percentile(times * scale, [25, 50, 75])
    return (f"{med:9.{digits}f} {unit}  (IQR {q1:.{digits}f}-{q3:.{digits}f}"
            f", {len(times)} runs)")


def report(label, times: dict, wins: dict, unit: str = "ms") -> None:
    """Print one ``describe`` row per path of an ``ab`` result, labelled
    ``label(name)``, then how many pairs the first path won."""
    for name, t in times.items():
        print(f"{label(name):<44} {describe(t, unit)}")
    first = next(iter(times))
    print(f"  {first} faster in {wins[first]}/{len(times[first])} pairs; "
          "results bit-identical")


def bench_bm25(n_docs: int, n_terms: int, rng) -> tuple[tuple, int]:
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
    den = tfs + norm[ids]

    def run(kernel, last):
        def call():
            scores = np.zeros(n_docs)  # the kernel accumulates into it
            kernel(starts, ends, ids, tfs, weights, last, 1.9, scores)
            return scores
        return call

    return ab({"den": run(_kernels.bm25_accumulate, den),
               "formula": run(_formula_bm25, norm)}, [()], repeat=5), len(ids)


def bench_spans(length: int, rng) -> tuple:
    """Time the banded kernel and the loop oracle on one paragraph, with
    the builtin reader's defaults (30-token spans, a 15-token context)."""
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
    out = np.empty((length, 30))

    def filled(kernel):
        def call():
            kernel(win_w, ctx_w, prev, 30, 15, 0.5, 0.3, out)
            return out
        return call

    return ab({"banded": filled(_kernels.span_score_matrix),
               "loop": filled(_loop_span_scores)}, [()], repeat=20)


def bench_tuning(rng, n_questions: int = 100, n_candidates: int = 3
                 ) -> tuple:
    """Time the array grid search and the loop oracle over synthetic dev
    questions, half of which have a gold answer among their candidates."""
    records, by_q = [], {}
    for i in range(n_questions):
        question = f"question {i}"
        texts = [f"answer {i} {j}" for j in range(n_candidates)]
        n = [fusion.normalize_scores(rng.normal(size=n_candidates).tolist())
             for _ in range(3)]
        by_q[question] = [SpanCandidate(
            para_id=f"p{i}#{j}", start_char=0, end_char=len(texts[j]),
            text=texts[j], s_retriever=n[0][j], s_ranker=n[1][j],
            s_reader=n[2][j], n_retriever=n[0][j], n_ranker=n[1][j],
            n_reader=n[2][j]) for j in range(n_candidates)]
        gold = texts[rng.integers(n_candidates)] if i % 2 else "unanswered"
        records.append(GoldRecord(f"q{i}", question, (gold,)))
    return ab({"array": fusion.tune_weights, "loop": _loop_tune_weights},
              [(records, _StubPipeline(by_q), 0.05)])


def f2_setup():
    """The F2 index, paragraphs and questions, and the ranker-training
    phases as the pipeline's set-up runs them: the finetune examples, the
    phase-1 model's aug2 (m=100, n=5) examples, and the ranker trained on
    both in turn."""
    from mindstone.corpus import Paragraph, read_records
    from mindstone.eval import read_questions
    from mindstone.index import InvertedIndex
    from mindstone.scorers import BuiltinRanker, train_builtin_ranker
    from mindstone.scorers.datasets import (build_dataset_aug2,
                                            build_dataset_finetune)

    paragraphs = {p.para_id: p for p in
                  read_records(Paragraph, FIXTURES / "f2_paragraphs.jsonl")}
    records, _ = read_questions(FIXTURES / "f2_questions.jsonl")
    index = InvertedIndex.build(paragraphs.values())
    finetune = build_dataset_finetune(records, paragraphs.values())
    phase1, _ = train_builtin_ranker(finetune, index)
    aug2 = build_dataset_aug2(records, index, paragraphs,
                              BuiltinRanker(phase1, index), m=100, n=5)
    model, _ = train_builtin_ranker(aug2, index, init=phase1)
    return (index, paragraphs, records, finetune, aug2,
            BuiltinRanker(model, index))


def bench_features(f2) -> dict[str, tuple]:
    """Time the ranker's training feature matrix over F2's finetune and
    aug2 examples, one phase at a time as training builds it: the array
    path (one call per phase) and the per-pair loop oracle. Keyed by the
    phase's label."""
    from mindstone.scorers.builtin import _example_features

    index, _, _, finetune, aug2, _ = f2

    def loop(examples, index):
        return np.array([_loop_features(ex.question, ex.text, index)
                         for ex in examples])

    return {f"{phase} ({len(examples)} F2 examples)":
            ab({"array": _example_features, "loop": loop},
               [(examples, index)], repeat=2)
            for phase, examples in (("finetune", finetune), ("aug2", aug2))}


def f2_pools(f2) -> tuple:
    """The F2 pipeline (trained ranker, builtin reader, default config),
    and for each question its read slice (its top 3 of 100) and its
    first-pass pool, each as (question, paragraphs)."""
    from mindstone.pipeline import Pipeline
    from mindstone.scorers import BuiltinReader

    index, paragraphs, records, _, _, ranker = f2
    pipeline = Pipeline(index, paragraphs, ranker, BuiltinReader(index))
    n_read = pipeline.config.n_reader_effective
    slices, pools = [], []
    for r in records:
        result = pipeline.answer(r.question)
        slices.append((r.question, [paragraphs[pid]
                                    for pid, _ in result.ranked[:n_read]]))
        pools.append((r.question, [paragraphs[pid]
                                   for pid, _ in result.retrieved]))
    return pipeline, slices, pools


def bench_read_and_rank(f2) -> tuple[tuple, tuple, np.ndarray, np.ndarray,
                                     int]:
    """Time the builtin reader over the paragraphs the F2 pipeline reads
    for each question (its top 3 of 100), next to the per-token loop that
    ``tests/test_scorers.py`` keeps as its oracle; the ranker's product of
    feature rows and weights over each question's top-100 pool, one
    ``vecdot`` against one dot per row; the warm rank stage over the same
    pools; and the warm read stage over each question's read slice (the
    same top 3). Returns the times, and the pool rows on which a column sum
    of products differs in a bit."""
    from mindstone import scorers
    from mindstone.scorers.builtin import _candidate, feature_rows

    index, _, _, _, _, ranker = f2
    pipeline, slices, pools = f2_pools(f2)
    reader = pipeline.reader
    limits = pipeline.config.limits
    reads = [(question, p.full_text) for question, read_slice in slices
             for p in read_slice]
    products = [(feature_rows(index, [(question, [
        _candidate(index, {}, p.para_id, p.full_text) for p in pool])]),)
        for question, pool in pools]

    def read(question, text):
        return reader.read_text(question, text, 1)

    def loop_read(question, text):
        return _loop_read_text(index, question, text, 1)

    w, bias = ranker._w, ranker.model.bias

    def vecdot(x):
        return np.vecdot(x, w) + bias

    def per_row(x):
        return [float(row @ w) + bias for row in x]

    def rank(question, pool):
        return scorers.rank(ranker, question, pool, limits)

    def read_stage(question, read_slice):
        return scorers.read(reader, question, read_slice,
                            pipeline.config.k_spans_per_paragraph, limits)

    column_sum = sum(int(((x * w).sum(axis=1) != np.vecdot(x, w)).sum())
                     for x, in products)
    return (ab({"array": read, "loop": loop_read}, reads),
            ab({"vecdot": vecdot, "per-row dot": per_row}, products),
            ab({"para_id memo": rank}, pools, pairs=20)[0]["para_id memo"],
            ab({"read": read_stage}, slices, pairs=20)[0]["read"],
            column_sum)


def bench_fixture_retrieval(n_queries: int):
    """Seconds per query of a batch of F2 retrievals at n=100, one entry
    per run, and the score pass of the same questions through the BM25
    kernel and through the formula (times per batch, postings per kernel
    call)."""
    from collections import Counter

    from mindstone.corpus import Paragraph, read_records, tokenize
    from mindstone.eval import read_questions
    from mindstone.index import InvertedIndex

    index = InvertedIndex.build(read_records(
        Paragraph, FIXTURES / "f2_paragraphs.jsonl"))
    records, _ = read_questions(FIXTURES / "f2_questions.jsonl")
    questions = [r.question for r in records]
    questions = (questions * ((n_queries // len(questions)) + 1))[:n_queries]

    def retrieve_batch():
        for q in questions:
            index.retrieve(q, 100)

    retrieve_times = ab({"retrieve": retrieve_batch}, [()])[0]["retrieve"]

    # The index's own score pass, with the kernel it calls swapped for the
    # formula over its per-document norms.
    weights = [{t: float(c) for t, c in
                Counter(tokenize(q, index.stopwords)).items()}
               for q in questions]
    postings = []
    kernel = _kernels.bm25_accumulate

    def formula(starts, ends, ids, tfs, term_weights, den, k1p1, scores):
        _formula_bm25(starts, ends, ids, tfs, term_weights, index._norm,
                      k1p1, scores)

    def counting(starts, ends, *args):
        postings.append(int((ends - starts).sum()))
        kernel(starts, ends, *args)

    def batch(swap):
        def call():
            _kernels.bm25_accumulate = swap
            try:
                return np.concatenate([index._accumulate(w)
                                       for w in weights])
            finally:
                _kernels.bm25_accumulate = kernel
        return call

    batch(counting)()
    return (retrieve_times / n_queries,
            ab({"den": batch(kernel), "formula": batch(formula)}, [()],
               repeat=2), postings)


def index_memory(path: Path, directory: str) -> str:
    """The traced memory of ``cascadebench``'s set-up order over the
    paragraph file ``path``: read the paragraph map, build an index, save
    it to ``directory``, and load it while the built index is alive. Each
    step's peak and the MiB held after it count from the start, so they
    include the paragraph map. Exits if the loaded checksum differs."""
    from mindstone.corpus import load_paragraph_map
    from mindstone.index import InvertedIndex

    def step() -> tuple[float, float]:
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return peak / 2**20, held / 2**20

    tracemalloc.start()
    try:
        paragraphs = load_paragraph_map(path)
        _, read_mib = step()
        index = InvertedIndex.build(paragraphs.values())
        build = step()
        built = index.build_checksum
        index.save(directory)
        step()
        index = InvertedIndex.load(directory)
        load = step()
    finally:
        tracemalloc.stop()
    if index.build_checksum != built:
        raise SystemExit(f"{path.name}: the loaded index's checksum "
                         "differs from its build's")
    return (f"paragraph map held {read_mib:.1f} MiB "
            f"({read_mib * 2**20 / len(paragraphs):,.0f} B/paragraph); "
            "build peak {:.1f} held {:.1f}; load peak {:.1f} held {:.1f}"
            .format(*build, *load))


def bench_index(corpora: dict, repeat: int = 3) -> None:
    """Print build, save and load seconds (median over ``repeat`` rounds),
    the saved bytes per file and the traced set-up memory (see
    ``index_memory``) of an index over each of ``corpora`` (name ->
    paragraph file), and the postings sort of its rows' term ids,
    ``_stable_argsort`` next to ``np.argsort(kind="stable")``, also over
    keys past 16 bits."""
    import tempfile

    from mindstone.corpus import load_paragraph_map
    from mindstone.index import InvertedIndex, _stable_argsort

    for name, path in corpora.items():
        paragraphs = list(load_paragraph_map(path).values())
        times: dict[str, list] = {"build": [], "save": [], "load": []}
        with tempfile.TemporaryDirectory() as tmp:
            for _ in range(repeat):
                start = time.perf_counter()
                index = InvertedIndex.build(paragraphs)
                built = time.perf_counter()
                index.save(tmp)
                saved = time.perf_counter()
                InvertedIndex.load(tmp)
                times["build"].append(built - start)
                times["save"].append(saved - built)
                times["load"].append(time.perf_counter() - saved)
            sizes = {f.name: f.stat().st_size
                     for f in sorted(Path(tmp).iterdir())}
        print(f"{name} index: " + ", ".join(
            f"{step} {np.median(t):.3f} s" for step, t in times.items()))
        print("  bytes: " + ", ".join(f"{file} {size:,}"
                                      for file, size in sizes.items()))
        with tempfile.TemporaryDirectory() as tmp:
            print(f"  traced MiB: {index_memory(path, tmp)}")
        keys, bound = index._doc_term_ids, len(index._terms)
        wide = np.random.default_rng(0).integers(0, 2**20, len(keys))
        for keys_of, call in ((f"{bound} terms", (keys, bound)),
                              ("2**20 keys", (wide, 2**20))):
            report(lambda side: f"{name} sort, {side} ({keys_of})", *ab(
                {"radix": _stable_argsort,
                 "np.argsort": lambda k, _: np.argsort(k, kind="stable")},
                [call]))
        print(f"  {len(keys):,} rows")


ECHO = [sys.executable, "-m", "mindstone.scorers.echo_scorer"]


@contextmanager
def one_cpu():
    """Pin this process, and so the scorers it spawns, to one CPU, with
    this checkout's ``src`` first on their ``PYTHONPATH``."""
    saved_env = os.environ.get("PYTHONPATH")
    saved_cpus = os.sched_getaffinity(0)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), saved_env]))
    os.sched_setaffinity(0, {min(saved_cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved_cpus)
        if saved_env is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved_env


def bench_spawn(repeat: int) -> np.ndarray:
    """Seconds from spawning ``python -m mindstone.scorers.echo_scorer``
    (this checkout's) to its hello, over ``repeat`` spawns pinned to one
    CPU; each scorer is closed before the next spawn."""
    from mindstone.scorers.external import ExternalScorer

    with one_cpu():
        ExternalScorer(ECHO, "read").close()  # warm the bytecode cache
        times = np.empty(repeat)
        for r in range(repeat):
            start = time.perf_counter()
            scorer = ExternalScorer(ECHO, "read")
            times[r] = time.perf_counter() - start
            scorer.close()
    return times


def bench_external_read(f2) -> tuple:
    """Time the F2 read stage (``scorers.read``) over each question's read
    slice (its top 3 of 100) with the echo scorer as reader, at protocol 2
    next to protocol 1, all pinned to one CPU."""
    from mindstone import scorers
    from mindstone.scorers.external import ExternalScorer

    pipeline, slices, _ = f2_pools(f2)
    k, limits = pipeline.config.k_spans_per_paragraph, pipeline.config.limits

    def stage(reader):
        return lambda question, read_slice: scorers.read(
            reader, question, read_slice, k, limits)

    with one_cpu(), \
            ExternalScorer(ECHO + ["--protocol", "2"], "read") as v2, \
            ExternalScorer(ECHO + ["--protocol", "1"], "read") as v1:
        return ab({"protocol 2": stage(v2), "protocol 1": stage(v1)},
                  slices)


# A protocol-2 reader that busy-waits the given milliseconds per text,
# standing in for a model's compute, then reads the whole text as one span.
BUSY_SCORER = """
import json, sys, time
busy = float(sys.argv[1]) / 1000
print(json.dumps({"type": "hello", "protocol": 2, "roles": ["read"]}),
      flush=True)

def read(text):
    end = time.perf_counter() + busy
    while time.perf_counter() < end:
        pass
    return [{"start": 0, "end": len(text), "score": 1.0}]

for line in sys.stdin:
    req = json.loads(line)
    if req["type"] == "read_batch":
        reply = {"type": "read_batch_result",
                 "spans": [read(text) for text in req["texts"]]}
    else:
        reply = {"type": "read_result", "spans": read(req["text"])}
    print(json.dumps(dict(reply, id=req["id"])), flush=True)
"""


def bench_fanout(f2, busy_ms: float) -> tuple:
    """Seconds per question of ``answer_batch`` over F2's questions, which
    fans out over one thread per usable CPU because the reader is a
    ``ScorerPool``, and of answering them one by one. The reader busy-waits
    ``busy_ms`` per text; the ranker is the trained builtin one."""
    from mindstone.pipeline import Pipeline
    from mindstone.scorers.external import ScorerPool

    index, paragraphs, records, _, _, ranker = f2
    questions = [r.question for r in records]
    command = [sys.executable, "-c", BUSY_SCORER, str(busy_ms)]

    def outcomes(results):
        return [(r.error, r.answers) for r in results]

    # The check's first batch spawns the pool's scorers.
    with ScorerPool(command, "read") as reader:
        pipeline = Pipeline(index, paragraphs, ranker, reader)
        times, wins = ab(
            {"fan-out": lambda: outcomes(pipeline.answer_batch(questions)),
             "serial": lambda: outcomes(map(pipeline.answer_or_error,
                                            questions))}, [()])
    return {name: t / len(questions) for name, t in times.items()}, wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--docs", type=int, default=50_000)
    parser.add_argument("--terms", type=int, default=8)
    parser.add_argument("--span-tokens", type=int, nargs="+",
                        default=[30, 384])
    parser.add_argument("--queries", type=int, default=300)
    parser.add_argument("--fanout-ms", type=float, nargs="+",
                        default=[0, 1, 5])
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    result, postings = bench_bm25(args.docs, args.terms, rng)
    report(lambda name: f"bm25 accumulate, {name} ({args.docs} docs)",
           *result)
    print(f"  {postings} postings per call")

    for length in args.span_tokens:
        report(lambda name: f"span scores, {name} ({length} tokens x 30)",
               *bench_spans(length, rng))

    report(lambda name: f"fusion grid search, {name} (100 q x 231 pts)",
           *bench_tuning(rng))

    f2 = f2_setup()
    for phase, result in bench_features(f2).items():
        report(lambda name: f"ranker features, {name}, {phase}", *result)

    reads, products, ranks, read_stage, column_sum = bench_read_and_rank(f2)
    report(lambda name: f"F2 read_text, {name} (per paragraph)", *reads,
           unit="us")
    report(lambda name: f"F2 rank pool product, {name} (per pool)",
           *products, unit="us")
    print(f"  a column sum would differ on {column_sum} pool rows")
    label = "F2 warm rank stage, para_id memo"
    print(f"{label:<44} {describe(ranks, 'us')}")
    label = "F2 warm read stage"
    print(f"{label:<44} {describe(read_stage, 'us')}")
    report(lambda name: f"F2 external read stage, echo {name}",
           *bench_external_read(f2), unit="us")

    per_query, result, postings = bench_fixture_retrieval(args.queries)
    label = f"F2 retrieval batch of {args.queries}, n=100, per query"
    print(f"{label:<44} {describe(per_query)}")
    report(lambda name: f"F2 batch score pass, {name}", *result)
    print(f"  {np.mean(postings):.1f} postings per call (median "
          f"{np.median(postings):.0f}, {len(postings)} calls per batch)")

    import tempfile
    sys.path.insert(0, str(ROOT / "cascadebench"))
    from synth import generate

    from mindstone.corpus import write_json_lines
    with tempfile.TemporaryDirectory() as tmp:
        synth = Path(tmp) / "paragraphs.jsonl"
        write_json_lines(generate(1, SYNTH_PARAGRAPHS)[0], synth)
        bench_index({"F2": FIXTURES / "f2_paragraphs.jsonl",
                     "synth100k": synth})

    label = "echo scorer spawn + hello (one CPU)"
    print(f"{label:<44} {describe(bench_spawn(16))}")

    for busy_ms in args.fanout_ms:
        report(lambda name: f"F2 batch per question, busy {busy_ms:g} ms, "
                            f"{name}", *bench_fanout(f2, busy_ms))
    return 0


if __name__ == "__main__":
    sys.exit(main())
