"""Command-line entry point.

Subcommands: ingest, index, build-dataset, train-ranker, answer,
tune-weights, eval, bench. Config precedence is CLI flag > config file >
built-in default, and every report references the run manifest that
produced it. Set MINDSTONE_LOG to control log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _kernels, eval as eval_mod, fusion
from .corpus import (DEFAULT_STOPWORDS, STRING, STRING_OR_INTEGER, Article,
                     Paragraph, json_field, json_value, load_json_object,
                     load_paragraph_map, load_stopwords, read_json_lines,
                     read_records, split_article, write_json_lines,
                     write_json_object, write_records)
from .errors import MindstoneError
from .index import Bm25Params, InvertedIndex
from .pipeline import Pipeline, PipelineConfig, answer_record
from .scorers import (BuiltinRanker, BuiltinRankerModel, BuiltinReader,
                      RankExample, TrainConfig, build_dataset_aug1,
                      build_dataset_aug2, build_dataset_finetune,
                      train_ranker_phases)
from .scorers.external import ScorerPool

log = logging.getLogger("mindstone")


def _configure_logging():
    level = os.environ.get("MINDSTONE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# -- config & manifest -----------------------------------------------------

def _load_config(args) -> PipelineConfig:
    """The --config file's settings under the flags' overrides. A
    ValueError names the file only if the file alone is invalid too, so an
    error that a flag brought about does not blame the file."""
    data = load_json_object(args.config) if args.config else {}
    try:
        return PipelineConfig.from_dict(data, overrides=vars(args))
    except ValueError as exc:
        try:
            PipelineConfig.from_dict(data)
        except ValueError:
            raise ValueError(f"{args.config}: {exc}") from None
        raise


def _build_ranker(args, index: InvertedIndex):
    """The ranker that --external-ranker or --ranker-model names (else the
    all-zeros builtin model), and its description for the manifest."""
    if args.external_ranker:
        return (ScorerPool(args.external_ranker, "rank"),
                f"external:{args.external_ranker}")
    if args.ranker_model:
        model = BuiltinRankerModel.load(args.ranker_model)
        digest = hashlib.sha256(
            Path(args.ranker_model).read_bytes()).hexdigest()[:16]
        return BuiltinRanker(model, index), f"builtin:{digest}"
    return BuiltinRanker(BuiltinRankerModel.zeros(), index), "builtin:zeros"


def _read_questions(path: str) -> tuple[list[eval_mod.GoldRecord], int]:
    records, skipped = eval_mod.read_questions(path)
    if skipped:
        log.warning("skipped %d malformed question records", skipped)
    return records, skipped


def _check_paragraphs(index: InvertedIndex, paragraphs, path: str):
    """Refuse a paragraph file whose para_ids are not the index's doc_ids,
    naming the first indexed para_id it lacks or else its first extra."""
    missing = next((pid for pid in index.doc_ids if pid not in paragraphs),
                   None)
    if missing is not None:
        raise ValueError(f"{path}: no paragraph text for indexed para_id "
                         f"{missing!r}")
    extra = next((pid for pid in paragraphs if pid not in index), None)
    if extra is not None:
        raise ValueError(f"{path}: para_id {extra!r} is not in the index")


def _build_pipeline(args, config: PipelineConfig):
    index = InvertedIndex.load(args.index)
    paragraphs = load_paragraph_map(args.paragraphs)
    _check_paragraphs(index, paragraphs, args.paragraphs)
    ranker, ranker_desc = _build_ranker(args, index)

    if args.external_reader:
        reader = ScorerPool(args.external_reader, "read")
        reader_desc = f"external:{args.external_reader}"
    else:
        reader = BuiltinReader(index)
        reader_desc = "builtin:heuristic-v1"

    pipeline = Pipeline(index, paragraphs, ranker, reader, config)
    scorer_descs = {"ranker": ranker_desc, "reader": reader_desc}
    return pipeline, scorer_descs


def _texts_digest(index: InvertedIndex, paragraphs) -> str:
    """SHA-256 of the paragraphs' full texts in the index's ordinal order,
    each as one JSON string line."""
    digest = hashlib.sha256()
    for pid in index.doc_ids:
        digest.update(json.dumps(paragraphs[pid].full_text).encode() + b"\n")
    return digest.hexdigest()


def _run_manifest(config: PipelineConfig, index: InvertedIndex, paragraphs,
                  scorer_descs: dict, seed: int) -> dict:
    # The index checksum covers the rows, not the texts, which the ranker
    # and reader read: texts with the same tokens in another order index
    # alike but answer differently.
    core = {
        "tool_version": __version__,
        "config": config.to_dict(),
        "index_checksum": index.build_checksum,
        "paragraphs_sha256": _texts_digest(index, paragraphs),
        "scorers": scorer_descs,
        "seed": seed,
    }
    key = hashlib.sha256(
        json.dumps(core, sort_keys=True).encode("utf-8")).hexdigest()
    manifest = dict(core)
    manifest["manifest_key"] = key
    manifest["created_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime())
    # What produced the numbers, outside the hashed core: a library upgrade
    # does not change which run a manifest_key names.
    manifest["provenance"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": _kernels.backend(),
    }
    return manifest


# -- subcommands -----------------------------------------------------------

def cmd_ingest(args) -> int:
    out = Path(args.out)
    if args.squad:
        articles, records = eval_mod.convert_squad_v11(args.squad)
        if args.out_questions:
            eval_mod.write_questions(records, args.out_questions)
            log.info("wrote %d question records", len(records))
    else:
        articles = read_records(Article, args.articles)
    paragraphs = (p for a in articles for p in split_article(a))
    n = write_records(paragraphs, out)
    print(f"wrote {n} paragraphs to {out}")
    return 0


def cmd_index(args) -> int:
    stopwords = (load_stopwords(args.stopwords) if args.stopwords
                 else DEFAULT_STOPWORDS)
    index = InvertedIndex.build(
        read_records(Paragraph, args.paragraphs),
        params=Bm25Params(k1=args.k1, b=args.b),
        stopwords=stopwords)
    index.save(args.out)
    print(f"indexed {index.doc_count} paragraphs into {args.out} "
          f"(avg_doc_len={index.avg_doc_len:.3f})")
    return 0


def cmd_build_dataset(args) -> int:
    records, _ = _read_questions(args.questions)
    paragraphs = load_paragraph_map(args.paragraphs)
    if args.method == "finetune":
        examples = build_dataset_finetune(records, paragraphs.values())
    else:
        if not args.index:
            raise ValueError(f"--index is required for --method {args.method}")
        index = InvertedIndex.load(args.index)
        if args.method == "aug1":
            examples = build_dataset_aug1(records, index, paragraphs,
                                          n=args.n)
        else:
            ranker, _ = _build_ranker(args, index)
            examples = build_dataset_aug2(records, index, paragraphs,
                                          ranker, m=args.m, n=args.n)
    n = write_records(examples, args.out)
    positives = sum(ex.label for ex in examples)
    print(f"wrote {n} examples ({positives} positive) to {args.out}")
    return 0


def cmd_train_ranker(args) -> int:
    index = InvertedIndex.load(args.index)
    datasets = [read_records(RankExample, p) for p in args.dataset]
    config = TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                         l2=args.l2, holdout_fraction=args.holdout,
                         seed=args.seed)
    model, reports = train_ranker_phases(datasets, index, config,
                                         mode=args.mode)
    model.save(args.out)
    for i, report in enumerate(reports):
        print(f"phase {i}: train={report.n_train} holdout={report.n_holdout} "
              f"holdout_accuracy={report.holdout_accuracy:.3f}")
    print(f"saved model to {args.out}")
    return 0


def _read_batch_questions(path: str) -> list[tuple[str, str]]:
    out = []
    for lineno, rec in read_json_lines(path):
        try:
            qid = json_value(rec.get("qid", f"q{lineno - 1}"),
                             STRING_OR_INTEGER, "qid")
            out.append((str(qid), json_field(rec, "question", STRING)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def cmd_answer(args) -> int:
    config = _load_config(args)
    pipeline, _ = _build_pipeline(args, config)
    if args.question is not None:
        batch = [("q0", args.question)]
    else:
        batch = _read_batch_questions(args.batch)
    results = pipeline.answer_batch([q for _, q in batch])
    eval_mod.log_failed_questions([qid for qid, _ in batch], results)
    write_json_lines((answer_record(qid, result)
                      for (qid, _), result in zip(batch, results)), args.out)
    return 0


def cmd_tune_weights(args) -> int:
    config = _load_config(args)
    pipeline, _ = _build_pipeline(args, config)
    records, _ = _read_questions(args.questions)
    best, report = fusion.tune_weights(records, pipeline,
                                       grid_step=args.grid_step)
    fusion.write_tuning_csv(report, args.report)
    best_em = max(point.em for point in report)
    print(f"best weights: w_retriever={best.w_retriever:.4f} "
          f"w_ranker={best.w_ranker:.4f} w_reader={best.w_reader:.4f} "
          f"(em={best_em:.4f}, {len(report)} grid points)")
    if args.out_config:
        write_json_object(dataclasses.replace(config, weights=best).to_dict(),
                          args.out_config)
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    pipeline, scorer_descs = _build_pipeline(args, config)
    records, skipped = _read_questions(args.questions)
    n_grid = [int(n) for n in args.n_grid.split(",")]
    report, curves = eval_mod.run_eval(records, pipeline, n_grid,
                                       tau=args.tau, malformed_skipped=skipped)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _run_manifest(config, pipeline.index, pipeline.paragraphs,
                             scorer_descs, args.seed)
    report.manifest_key = manifest["manifest_key"]
    write_json_object(report.to_dict(), out_dir / "report.json")
    eval_mod.write_curves_csv(curves, out_dir / "curves.csv")
    write_json_object(manifest, out_dir / "run_manifest.json")
    print(f"em={report.em:.4f} f1={report.f1:.4f} over "
          f"{report.n_questions} questions -> {out_dir}")
    return 0


def cmd_bench(args) -> int:
    config = _load_config(args)
    pipeline, scorer_descs = _build_pipeline(args, config)
    records, _ = _read_questions(args.questions)
    latency = eval_mod.run_benchmark(records, pipeline, runs=args.runs,
                                     queries_per_run=args.queries_per_run)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _run_manifest(config, pipeline.index, pipeline.paragraphs,
                             scorer_descs, args.seed)
    payload = dataclasses.asdict(latency)
    payload["manifest_key"] = manifest["manifest_key"]
    write_json_object(payload, out_dir / "latency.json")
    write_json_object(manifest, out_dir / "run_manifest.json")
    print(f"reported_ms={latency.reported_ms:.3f} over {latency.runs} runs "
          f"x {latency.queries_per_run} queries -> {out_dir}")
    return 0


# -- parser ----------------------------------------------------------------

def _add_pipeline_flags(p: argparse.ArgumentParser):
    p.add_argument("--index", required=True, help="index directory")
    p.add_argument("--paragraphs", required=True,
                   help="paragraphs JSONL (text store)")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--ranker-model", help="builtin ranker model JSON")
    p.add_argument("--external-ranker",
                   help="external ranker command line (wire protocol v1 "
                        "or v2)")
    p.add_argument("--external-reader",
                   help="external reader command line (wire protocol v1 "
                        "or v2)")
    p.add_argument("--n-retriever", type=int, help="first-pass depth")
    p.add_argument("--read-fraction", type=float,
                   help="fraction of retrieved docs sent to the reader")
    p.add_argument("--n-reader", type=int,
                   help="explicit reader cutoff (overrides --read-fraction)")
    p.add_argument("--k-spans", type=int, help="spans per read paragraph")
    rm3 = p.add_mutually_exclusive_group()
    enable = rm3.add_argument("--rm3", action="store_const", const=True,
                              default=None,
                              help="enable query expansion second pass")
    rm3.add_argument("--no-rm3", dest=enable.dest, action="store_const",
                     const=False, help="disable query expansion")
    p.add_argument("--rm3-alpha", type=float,
                   help="original-query mixing weight in [0,1]")
    p.add_argument("--rm3-terms", type=int,
                   help="feedback terms per document")
    p.add_argument("--rm3-second-pass-n", type=int,
                   help="second retrieval depth (default: n_retriever)")
    p.add_argument("--w-retriever", type=float, help="fusion weight")
    p.add_argument("--w-ranker", type=float, help="fusion weight")
    p.add_argument("--w-reader", type=float, help="fusion weight")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindstone",
        description="Open-domain QA pipeline: retrieve, rank, expand, read.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="split articles into paragraphs JSONL")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--articles", help="articles JSONL")
    src.add_argument("--squad", help="SQuAD v1.1 JSON file")
    p.add_argument("--out", required=True, help="paragraphs JSONL output")
    p.add_argument("--out-questions",
                   help="questions JSONL output (with --squad)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("index", help="build an inverted index directory")
    p.add_argument("--in", dest="paragraphs", required=True,
                   help="paragraphs JSONL")
    p.add_argument("--out", required=True, help="index output directory")
    p.add_argument("--k1", type=float, default=Bm25Params.k1, help="BM25 k1")
    p.add_argument("--b", type=float, default=Bm25Params.b, help="BM25 b")
    p.add_argument("--stopwords", help="stopword file (one term per line)")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("build-dataset", help="build a ranker dataset")
    p.add_argument("--method", required=True,
                   choices=["finetune", "aug1", "aug2"])
    p.add_argument("--questions", required=True, help="questions JSONL")
    p.add_argument("--paragraphs", required=True, help="paragraphs JSONL")
    p.add_argument("--index", help="index directory (aug1/aug2)")
    p.add_argument("--ranker-model", help="builtin ranker model (aug2)")
    p.add_argument("--external-ranker", help="external ranker command (aug2)")
    p.add_argument("--m", type=int, default=100,
                   help="retrieval depth before reranking (aug2)")
    p.add_argument("--n", type=int, default=5, help="kept examples per question")
    p.add_argument("--out", required=True, help="dataset JSONL output")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train-ranker", help="train the builtin ranker")
    p.add_argument("--dataset", action="append", required=True,
                   help="dataset JSONL (repeat for sequential phases)")
    p.add_argument("--index", required=True, help="index directory")
    p.add_argument("--mode", choices=["sequential", "concat"],
                   default="sequential")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--l2", type=float, default=TrainConfig.l2)
    p.add_argument("--holdout", type=float,
                   default=TrainConfig.holdout_fraction,
                   help="holdout fraction")
    p.add_argument("--out", required=True, help="model JSON output")
    p.set_defaults(func=cmd_train_ranker)

    p = sub.add_parser("answer", help="answer one question or a batch")
    _add_pipeline_flags(p)
    q = p.add_mutually_exclusive_group(required=True)
    q.add_argument("--question", help="one question")
    q.add_argument("--batch", help="questions JSONL")
    p.add_argument("--out", help="answers JSONL (default: stdout)")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("tune-weights",
                       help="grid-search fusion weights for top-1 EM")
    _add_pipeline_flags(p)
    p.add_argument("--questions", required=True, help="dev questions JSONL")
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--report", required=True, help="tuning CSV output")
    p.add_argument("--out-config", help="write config with tuned weights")
    p.set_defaults(func=cmd_tune_weights)

    p = sub.add_parser("eval", help="compute metrics and recall curves")
    _add_pipeline_flags(p)
    p.add_argument("--questions", required=True, help="questions JSONL")
    p.add_argument("--n-grid", default="1,5,20,100",
                   help="comma-separated N values for curves")
    p.add_argument("--tau", type=float, default=0.5,
                   help="strict-recall Jaccard threshold")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="latency benchmark (min of run means)")
    _add_pipeline_flags(p)
    p.add_argument("--questions", required=True, help="questions JSONL")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--queries-per-run", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_bench)

    for sp in sub.choices.values():
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for all randomness")
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MindstoneError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
