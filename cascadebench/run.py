"""Cascade benchmark for mindstone: three workloads through the public API.

    python3 cascadebench/run.py --workload f2-desk --seed 1 --seconds 20 --trace 0
    python3 cascadebench/run.py --workload all --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps every layer's public functions, runs one traced set-up,
answers each round of questions both untraced and traced, and reports the
per-layer metrics. Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Provenance, the
per-layer self-time table and (traced) the spans go to
``.cascadebench_out/<workload>/`` in the checkout. ``--workload all`` runs
each workload untraced and traced in child processes and prints every
result. See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".cascadebench_out"
F2 = ROOT / "tests" / "fixtures"

MIN_TIMED = 1000     # p99 of 1000+ latencies has at least ten beyond it
ROUND = 100          # questions per round; runs attempt whole rounds
SETUPS = 3           # set-ups per untraced run; setup_s is their median
GRID_STEP = 0.05

END_TO_END = [("setup_s", "s"), ("query_round_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("index_mb", "MB")]


@dataclass(frozen=True)
class Spec:
    name: str
    n_retriever: int
    rm3: bool
    external: bool        # the echo scorer reads, through ScorerPool
    tune: bool            # tune_weights on the dev slice during set-up
    augment: str          # second ranker-training phase: "aug2" or "aug1"
    ref_sample: int       # questions checked against the BM25 reference
    floor: tuple[float, float] | None = None   # EM, F1 the run must reach


SPECS = {
    "f2-desk": Spec("f2-desk", 100, False, False, True, "aug2", 20,
                    (0.850, 0.867)),
    "synth100k-rm3": Spec("synth100k-rm3", 20, True, False, False, "aug1", 8),
    "f2-external": Spec("f2-external", 100, False, True, False, "aug2", 20),
}


@dataclass
class Inputs:
    paragraphs: Path
    questions: list[dict]        # timed questions with their gold answers
    train: list = field(default_factory=list)   # GoldRecords for training
    dev: list = field(default_factory=list)     # GoldRecords for tuning


def import_program():
    """Put this checkout's ``src`` first on the path and import from it."""
    if not (SRC / "mindstone" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import mindstone
    if Path(mindstone.__file__).resolve().parent != SRC / "mindstone":
        raise SystemExit(f"error: imported mindstone from {mindstone.__file__}")


# -- inputs ------------------------------------------------------------------

def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines() if line.strip()]


def load_inputs(spec: Spec, seed: int, work: Path,
                synth_paragraphs: int = 100_000) -> Inputs:
    from mindstone.eval import read_questions
    if spec.name.startswith("f2"):
        paragraphs, qfile = F2 / "f2_paragraphs.jsonl", F2 / "f2_questions.jsonl"
        records, _ = read_questions(qfile)
        questions = read_jsonl(qfile)
        random.Random(seed).shuffle(questions)
        return Inputs(paragraphs, questions, train=records,
                      dev=records[:len(records) // 2])
    data = work / "corpus"
    n_train = 200
    subprocess.run([sys.executable, str(HERE / "synth.py"), "--seed",
                    str(seed), "--paragraphs", str(synth_paragraphs),
                    "--questions", str(n_train + 1100), "--out", str(data)],
                   check=True)
    records, _ = read_questions(data / "questions.jsonl")
    questions = read_jsonl(data / "questions.jsonl")
    return Inputs(data / "paragraphs.jsonl", questions[n_train:],
                  train=records[:n_train])


# -- set-up ------------------------------------------------------------------

def echo_command() -> list[str]:
    return [sys.executable, "-m", "mindstone.scorers.echo_scorer"]


def train_ranker(spec: Spec, inputs: Inputs, index, paragraphs):
    from mindstone.scorers import BuiltinRanker
    from mindstone.scorers.builtin import train_builtin_ranker
    from mindstone.scorers.datasets import (build_dataset_aug1,
                                            build_dataset_aug2,
                                            build_dataset_finetune)
    records = inputs.train
    phase1, _ = train_builtin_ranker(
        build_dataset_finetune(records, paragraphs.values()), index)
    if spec.augment == "aug2":
        second = build_dataset_aug2(records, index, paragraphs,
                                    BuiltinRanker(phase1, index), m=100, n=5)
    else:
        second = build_dataset_aug1(records, index, paragraphs,
                                    n=spec.n_retriever)
    model, _ = train_builtin_ranker(second, index, init=phase1)
    return BuiltinRanker(model, index)


def set_up(spec: Spec, inputs: Inputs, work: Path, span):
    """Paragraph file on disk -> ready Pipeline. Returns (pipeline,
    seconds, index MB, scorer pools to close)."""
    from mindstone import fusion
    from mindstone.corpus import load_paragraph_map
    from mindstone.index import InvertedIndex
    from mindstone.pipeline import Pipeline, PipelineConfig
    from mindstone.scorers import BuiltinReader
    from mindstone.scorers.external import ScorerPool

    index_dir = work / "index"
    shutil.rmtree(index_dir, ignore_errors=True)
    pools = []
    t0 = time.perf_counter()
    with span("corpus.load"):
        paragraphs = load_paragraph_map(inputs.paragraphs)
    index = InvertedIndex.build(paragraphs.values())
    index.save(index_dir)
    index = InvertedIndex.load(index_dir)
    config = PipelineConfig(n_retriever=spec.n_retriever,
                            rm3_enabled=spec.rm3)
    with span("setup.train"):
        ranker = train_ranker(spec, inputs, index, paragraphs)
    if spec.external:
        reader = ScorerPool(echo_command(), "read")
        pools = [reader]
        probe = next(iter(paragraphs.values())).full_text
        reader.read_text("probe", probe, 1)   # spawn and handshake
    else:
        reader = BuiltinReader(index)
    pipeline = Pipeline(index, paragraphs, ranker, reader, config)
    if spec.tune:
        weights, _ = fusion.tune_weights(inputs.dev, pipeline, GRID_STEP)
        pipeline = pipeline.with_config(replace(config, weights=weights))
    seconds = time.perf_counter() - t0
    index_mb = sum(f.stat().st_size for f in index_dir.iterdir()) / 2**20
    return pipeline, seconds, index_mb, pools


def no_span(name: str):
    return nullcontext()


# -- questions ---------------------------------------------------------------

class Answers:
    """Keeps what the checks need from the first answer to each question
    and requires every repeat to give the same answer list."""

    def __init__(self, n_reader: int):
        self.n_reader = n_reader
        self.first: dict[str, dict] = {}
        self.errors: list[str] = []
        self.failed = 0

    def fail(self, qid: str, error: str) -> None:
        self.failed += 1
        self.errors.append(f"{qid}: {error}")

    def add(self, qid: str, result) -> None:
        answers = tuple((a.answer_text, a.para_id, a.start_char, a.end_char,
                         a.fused) for a in result.answers)
        seen = self.first.get(qid)
        if seen is None:
            ranked = [pid for pid, _ in result.ranked]
            self.first[qid] = {
                "answers": answers, "retrieved": result.retrieved,
                "ranked": result.ranked, "read": ranked[:self.n_reader]}
        elif seen["answers"] != answers:
            self.errors.append(f"{qid}: answer list changed on repeat")


def rounds(questions: list[dict]):
    """Endless whole rounds of ROUND questions, cycling the list."""
    cycle = itertools.cycle(questions)
    while True:
        yield [next(cycle) for _ in range(ROUND)]


def answer_round(pipeline, batch, answers: Answers,
                 latencies: list) -> list:
    """Answer one round, one question at a time, timing each
    ``Pipeline.answer``. A question whose stage fails is recorded as failed
    and the round goes on, as ``answer_batch`` does. Returns the results."""
    from mindstone.errors import MindstoneError
    clock = time.perf_counter
    results = []
    for q in batch:
        t0 = clock()
        try:
            result = pipeline.answer(q["question"])
        except MindstoneError as exc:
            latencies.append(clock() - t0)
            answers.fail(q["qid"], str(exc))
            continue
        latencies.append(clock() - t0)
        answers.add(q["qid"], result)
        results.append(result)
    return results


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def round_p90(latencies) -> float:
    """Median over the timed rounds of each round's 90th percentile. A
    burst of contention on the host lifts the tail of the rounds it hits;
    the median over rounds ignores it unless it spans half the run."""
    return statistics.median(percentile(latencies[i:i + ROUND], 0.90)
                             for i in range(0, len(latencies), ROUND))


def ungated(latencies, wall: float, prefix: str = "") -> dict[str, float]:
    """Median, p99 and throughput of the timed questions. Printed, and
    reported by the traced run, but not gated: on this class of host their
    run-to-run spread exceeds the largest bound a metric may have (see
    README.md)."""
    return {f"{prefix}query_p50_ms": statistics.median(latencies) * 1000.0,
            f"{prefix}query_p99_ms": percentile(latencies, 0.99) * 1000.0,
            f"{prefix}throughput_qps": len(latencies) / wall}


# -- checks ------------------------------------------------------------------

def run_checks(spec: Spec, inputs: Inputs, texts: dict[str, str], pipeline,
               answers: Answers, seed: int) -> list[str]:
    import checks
    from mindstone.expansion import expand_query, question_vector
    by_qid = {q["qid"]: q for q in inputs.questions}
    errors = list(answers.errors)
    if len(answers.first) == 0:
        errors.append("no question answered")
    em = f1 = recall = 0.0
    for qid, rec in answers.first.items():
        q = by_qid[qid]
        errors += [f"{qid}: {e}" for e in checks.check_answers(
            q["question"], rec["answers"], texts, set(rec["read"]))]
        top = rec["answers"][0][0] if rec["answers"] else ""
        em += checks.em(top, q["answers"])
        f1 += checks.f1(top, q["answers"])
        recall += any(checks.contains(texts[pid], q["answers"])
                      for pid, _ in rec["ranked"])
        if spec.external:
            whole = {checks.reader_text(q["question"], texts[pid])
                     for pid in rec["read"]}
            if any(a[0] not in whole for a in rec["answers"]):
                errors.append(f"{qid}: answer is not a whole read text")
    n = len(answers.first) or 1
    em, f1, recall = em / n, f1 / n, recall / n
    if em > recall:
        errors.append(f"EM {em:.4f} above lenient pool recall {recall:.4f}")
    if spec.floor and (em < spec.floor[0] or f1 < spec.floor[1] - 5e-4):
        errors.append(f"EM/F1 {em:.4f}/{f1:.4f} below {spec.floor}")
    print(f"quality: EM {em:.4f} F1 {f1:.4f} pool recall {recall:.4f} "
          f"over {len(answers.first)} questions")

    # Retrieval against the independent BM25, first pass and expanded query.
    index, cfg = pipeline.index, pipeline.config
    sample = random.Random(seed).sample(sorted(answers.first),
                                        min(spec.ref_sample,
                                            len(answers.first)))
    expanded = {}
    for qid in sample:
        rec = answers.first[qid]
        s_rank = dict(rec["ranked"])
        feedback = [(pid, s_rank[pid]) for pid, _ in rec["retrieved"]]
        expanded[qid] = expand_query(
            question_vector(index, by_qid[qid]["question"]), feedback,
            index, cfg.rm3)
    terms = {t for qid in sample for t in
             list(checks.question_weights(by_qid[qid]["question"]))
             + list(expanded[qid].weights)}
    ref = checks.ReferenceBm25(texts, terms, index.params.k1, index.params.b)
    for qid in sample:
        question = by_qid[qid]["question"]
        rec = answers.first[qid]
        scores = ref.scores(checks.question_weights(question))
        errors += checks.compare_hits(f"{qid} retrieve", rec["retrieved"],
                                      ref, scores, cfg.n_retriever)
        errors += checks.compare_hits(
            f"{qid} direct retrieve",
            index.retrieve(question, cfg.n_retriever).hits, ref, scores,
            cfg.n_retriever)
        if not expanded[qid]:
            continue
        second = index.retrieve_weighted(expanded[qid], cfg.n_retriever)
        scores = ref.scores(checks.rescaled(expanded[qid].weights))
        errors += checks.compare_hits(f"{qid} retrieve_weighted",
                                      second.hits, ref, scores,
                                      cfg.n_retriever)
        if spec.rm3:
            first = {pid for pid, _ in rec["retrieved"]}
            added = {pid for pid, _ in rec["ranked"]} - first
            if added != {pid for pid, _ in second.hits} - first:
                errors.append(f"{qid}: the RM3 pass did not add the new "
                              f"paragraphs of the expanded retrieval")
    return errors


# -- runs --------------------------------------------------------------------

def untraced_run(spec: Spec, inputs: Inputs, work: Path, seconds: float):
    pipeline = pools = None
    setup_times = []
    for _ in range(SETUPS):
        for pool in pools or []:
            pool.close()
        pipeline = pools = None
        gc.collect()
        pipeline, setup_s, index_mb, pools = set_up(spec, inputs, work,
                                                    no_span)
        setup_times.append(setup_s)
    answers = Answers(pipeline.config.n_reader_effective)
    latencies: list[float] = []
    try:
        answer_round(pipeline, inputs.questions[:20], Answers(1), [])
        t0 = time.perf_counter()
        for batch in rounds(inputs.questions):
            answer_round(pipeline, batch, answers, latencies)
            wall = time.perf_counter() - t0
            if wall >= seconds and len(latencies) >= MIN_TIMED:
                break
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        for pool in pools:
            pool.close()
    metrics = {"setup_s": statistics.median(setup_times),
               "query_round_p90_ms": round_p90(latencies) * 1000.0,
               "peak_rss_mb": peak_rss, "index_mb": index_mb}
    metrics.update(ungated(latencies, wall))
    print(f"set-ups: {[round(s, 3) for s in setup_times]} s; timed "
          f"{len(latencies)} questions in {wall:.2f} s")
    return pipeline, answers, len(latencies), metrics


def traced_run(spec: Spec, inputs: Inputs, work: Path, seconds: float,
               texts: dict[str, str]):
    from mindstone.fusion import simplex_grid
    from tracer import Tracer
    tracer = Tracer()
    tracer.qid_of = {q["question"]: q["qid"] for q in inputs.questions}
    tracer.qid_of.update({r.question: r.qid for r in inputs.dev})
    tracer.install()
    try:
        pipeline, _, _, pools = set_up(spec, inputs, work, tracer.span)
    finally:
        tracer.uninstall()
    answers = Answers(pipeline.config.n_reader_effective)
    plain: list[float] = []
    traced: list[float] = []
    stage_ms: list[dict] = []    # StageTrace times of the traced answers
    plain_wall = 0.0
    tracer.phase = "query"
    try:
        answer_round(pipeline, inputs.questions[:20], Answers(1), [])
        t0 = time.perf_counter()
        # Each round is answered untraced and traced, in turns first, so the
        # overhead compares the same questions.
        for i, batch in enumerate(rounds(inputs.questions)):
            for with_trace in ((False, True) if i % 2 == 0
                               else (True, False)):
                if with_trace:
                    tracer.install()
                t1 = time.perf_counter()
                try:
                    results = answer_round(pipeline, batch, answers,
                                           traced if with_trace else plain)
                finally:
                    tracer.uninstall()
                if with_trace:
                    stage_ms += [r.trace.times_ms for r in results]
                else:
                    plain_wall += time.perf_counter() - t1
            if time.perf_counter() - t0 >= seconds and len(plain) >= MIN_TIMED:
                break
    finally:
        for pool in pools:
            pool.close()

    table = tracer.table()
    OUT.joinpath(spec.name).mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / spec.name / "spans.npz", table)
    n_points = len(simplex_grid(GRID_STEP)) * len(inputs.dev)
    metrics = layer_metrics(table, answers, stage_ms, inputs, texts,
                            n_points)
    metrics["trace.overhead_pct"] = (statistics.fmean(traced)
                                     / statistics.fmean(plain) - 1.0) * 100.0
    metrics.update(ungated(plain, plain_wall, "untraced."))
    print_self_times(table)
    return pipeline, answers, len(plain) + len(traced), metrics


def layer_metrics(t, answers: Answers, stage_ms: list[dict], inputs: Inputs,
                  texts: dict[str, str], n_points: int) -> dict[str, float]:
    """Per-layer metrics of a traced run. The ``scorers.external`` ones
    read 0 on a workload without an external scorer."""
    import checks
    import numpy as np
    name, phase = t["name"], t["phase"]
    query = phase == "query"
    setup = phase == "setup"
    nq = max(1, int(np.count_nonzero(query & (name == "pipeline.answer"))))

    def sel(span, where=query):
        return where & (name == span)

    def self_ms(span):
        return float(t["self"][sel(span)].sum()) * 1000.0 / nq

    def count(span):
        return int(np.count_nonzero(sel(span)))

    def total_s(span, where=setup):
        return float(t["dur"][sel(span, where)].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    ranks, reads = count("scorers.rank"), count("scorers.read")
    trips = sel("scorers.external.rank_text") | sel("scorers.external.read_text")
    tune = np.flatnonzero(sel("fusion.tune_weights", setup))
    tune_grid_s = 0.0
    for pos in tune:
        kids = (t["parent_pos"] == pos) & (name == "pipeline.answer")
        tune_grid_s += t["dur"][pos] - float(t["dur"][kids].sum())

    # Expansion and read counts per distinct question; every question was
    # answered both untraced and traced, with the same answer list.
    by_qid = {q["qid"]: q for q in inputs.questions}
    added = in_read = 0
    read_tokens = []
    for qid, rec in answers.first.items():
        first = {pid for pid, _ in rec["retrieved"]}
        new = [pid for pid, _ in rec["ranked"] if pid not in first]
        added += len(new)
        in_read += sum(pid in set(rec["read"]) for pid in new)
        question = by_qid[qid]["question"]
        read_tokens += [len(checks.raw_tokens(checks.reader_text(
            question, texts[pid]))) for pid in rec["read"]]

    def stage(key):
        return statistics.fmean(times.get(key, 0.0) for times in stage_ms) \
            if stage_ms else 0.0

    m = {
        "corpus.load_s": total_s("corpus.load"),
        "index.build_s": total_s("index.build"),
        "index.save_s": total_s("index.save"),
        "index.load_s": total_s("index.load"),
        "index.retrieve_ms": self_ms("index.retrieve"),
        "index.retrieve_weighted_ms": self_ms("index.retrieve_weighted"),
        "kernels.bm25_accumulate_ms": self_ms("_kernels.bm25_accumulate"),
        "index.postings_per_query": float(np.nansum(
            t["work"][sel("_kernels.bm25_accumulate")])) / nq,
        "expansion.expand_ms": self_ms("expansion.expand_query"),
        "expansion.terms_per_query": float(np.nansum(
            t["work"][sel("expansion.expand_query")])) / nq,
        "expansion.added_per_query": ratio(added, len(answers.first)),
        "expansion.added_read_ratio": ratio(in_read, added),
        "scorers.rank_ms": self_ms("scorers.rank"),
        "scorers.rank_pairs_per_query": ranks / nq,
        "scorers.rank_us_per_pair": ratio(
            float(t["dur"][sel("scorers.rank")].sum()) * 1e6, ranks),
        "scorers.truncate_ms": self_ms("scorers.truncate_to_tokens"),
        "scorers.read_rank_ratio": ratio(reads, ranks),
        "scorers.read_ms": self_ms("scorers.read"),
        "scorers.read_tokens_per_paragraph": ratio(sum(read_tokens),
                                                   len(read_tokens)),
        "kernels.span_score_ms": self_ms("_kernels.span_score_matrix"),
        "fusion.fuse_ms": self_ms("fusion.fuse_candidates"),
        "fusion.tune_s": total_s("fusion.tune_weights"),
        "fusion.tune_us_per_point_question": ratio(tune_grid_s * 1e6,
                                                   n_points),
        "setup.train_s": total_s("setup.train"),
        "pipeline.unaccounted_ms": self_ms("pipeline.answer"),
        "trace.spans_per_query": int(np.count_nonzero(query)) / nq,
    }
    for key in ("retrieve", "rank", "rm3", "read", "fuse"):
        m[f"pipeline.{key}_ms"] = stage(key)
    n_trips = int(np.count_nonzero(trips))
    m["scorers.external.round_trips_per_query"] = n_trips / nq
    m["scorers.external.us_per_round_trip"] = ratio(
        float(t["self"][trips].sum()) * 1e6, n_trips)
    m["scorers.external.request_kb_per_query"] = float(
        np.nansum(t["work"][trips])) / 1024 / nq
    m["scorers.external.spawn_s"] = total_s("scorers.external.spawn")
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("_qps"):
        return "questions/s"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if "_us_" in metric or ".us_" in metric:
        return "us"
    if metric.endswith("_kb_per_query"):
        return "KB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def print_self_times(t) -> None:
    """Self time per layer: ms per traced question, and seconds of set-up."""
    import numpy as np
    layers = np.array([n.rsplit(".", 1)[0] for n in t["name"]], dtype=object)
    nq = max(1, int(np.count_nonzero((t["phase"] == "query")
                                     & (t["name"] == "pipeline.answer"))))
    print(f"{'layer':<18}{'query ms/q':>12}{'setup s':>10}")
    for layer in sorted(set(layers)):
        mine = layers == layer
        q = float(t["self"][mine & (t["phase"] == "query")].sum())
        s = float(t["self"][mine & (t["phase"] == "setup")].sum())
        print(f"{layer:<18}{q * 1000 / nq:>12.4f}{s:>10.4f}")


def provenance(seed: int, workload: str, trace: int) -> dict:
    import numpy
    from mindstone import _kernels
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "kernel_backend": _kernels.backend(),
            "nproc": os.cpu_count(), "git_commit": commit}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; returns the result object."""
    import checks
    spec = SPECS[name]
    work = OUT / name / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = load_inputs(spec, seed, work)
        if trace:
            texts = checks.read_paragraph_texts(inputs.paragraphs)
            pipeline, answers, attempted, metrics = traced_run(
                spec, inputs, work, seconds, texts)
        else:
            # The checks' copy of the texts is read after peak RSS is taken.
            pipeline, answers, attempted, metrics = untraced_run(
                spec, inputs, work, seconds)
            texts = checks.read_paragraph_texts(inputs.paragraphs)
        errors = run_checks(spec, inputs, texts, pipeline, answers, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors[:20]:
        print(f"check failed: {e}")
    result = {"correct": not errors, "attempted": attempted,
              "failed": answers.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    if not trace:
        units = dict(END_TO_END)
        result["metrics"] = {k: {"value": metrics[k], "unit": units[k]}
                             for k, _ in END_TO_END}
        print("not gated: " + ", ".join(
            f"{k} {metrics[k]:.4f} {unit_of(k)}" for k in metrics
            if k not in units))
    record = dict(result, provenance=provenance(seed, name, trace))
    (OUT / name).mkdir(parents=True, exist_ok=True)
    (OUT / name / f"result-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("provenance: " + json.dumps(record["provenance"]))
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in SPECS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace}")
            if proc.returncode or not lines:
                print(f"exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            print(f"correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for key, m in result["metrics"].items():
                print(f"   {key:<42}{m['value']:>16.6g} {m['unit']}")
            status |= not result["correct"]
    return status


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and the scorers it spawns on one CPU.
    A round trip to an external scorer wakes the scorer, the reader thread
    and the caller in turn; across CPUs each wake-up may have to bring an
    idle virtual CPU back, which on a shared host takes from microseconds to
    milliseconds depending on the other tenants. On one CPU it is a context
    switch. The CPU is the one this process is running on (field 39 of
    /proc/self/stat). Called before the program is imported, so every
    thread it starts inherits the mask."""
    stat = Path("/proc/self/stat").read_text(encoding="ascii")
    os.sched_setaffinity(0, {int(stat.rsplit(")", 1)[1].split()[36])})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPECS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all" and SPECS[args.workload].external:
        pin_to_one_cpu()
    import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
