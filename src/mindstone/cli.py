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
import sys
import time
from pathlib import Path

from . import __version__, eval as eval_mod, fusion
from .corpus import (DEFAULT_STOPWORDS, load_paragraph_map, load_stopwords,
                     read_articles, read_paragraphs, split_article,
                     write_paragraphs)
from .errors import MindstoneError
from .index import Bm25Params, InvertedIndex
from .pipeline import Pipeline, PipelineConfig, dump_answer_line
from .scorers import (BuiltinRanker, BuiltinRankerModel, BuiltinReader,
                      TrainConfig, build_dataset_aug1, build_dataset_aug2,
                      build_dataset_finetune, read_rank_examples,
                      train_ranker_phases, write_rank_examples)
from .scorers.external import ScorerPool

log = logging.getLogger("mindstone")


def _configure_logging():
    level = os.environ.get("MINDSTONE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# -- config & manifest -----------------------------------------------------

def _load_config(args) -> PipelineConfig:
    data = {}
    if getattr(args, "config", None):
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    return PipelineConfig.from_dict(data, overrides=vars(args))


def _build_pipeline(args, config: PipelineConfig):
    index = InvertedIndex.load(args.index)
    paragraphs = load_paragraph_map(args.paragraphs)

    if getattr(args, "external_ranker", None):
        ranker = ScorerPool(args.external_ranker, "rank")
        ranker_desc = f"external:{args.external_ranker}"
    else:
        model_path = getattr(args, "ranker_model", None)
        if model_path:
            model = BuiltinRankerModel.load(model_path)
            digest = hashlib.sha256(
                Path(model_path).read_bytes()).hexdigest()[:16]
            ranker_desc = f"builtin:{digest}"
        else:
            model = BuiltinRankerModel.zeros()
            ranker_desc = "builtin:zeros"
        ranker = BuiltinRanker(model, index)

    if getattr(args, "external_reader", None):
        reader = ScorerPool(args.external_reader, "read")
        reader_desc = f"external:{args.external_reader}"
    else:
        reader = BuiltinReader(index)
        reader_desc = "builtin:heuristic-v1"

    pipeline = Pipeline(index, paragraphs, ranker, reader, config)
    scorer_descs = {"ranker": ranker_desc, "reader": reader_desc}
    return pipeline, scorer_descs


def _run_manifest(config: PipelineConfig, index: InvertedIndex,
                  scorer_descs: dict, seed: int) -> dict:
    core = {
        "tool_version": __version__,
        "config": config.to_dict(),
        "index_checksum": index.build_checksum,
        "scorers": scorer_descs,
        "seed": seed,
    }
    key = hashlib.sha256(
        json.dumps(core, sort_keys=True).encode("utf-8")).hexdigest()
    manifest = dict(core)
    manifest["manifest_key"] = key
    manifest["created_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime())
    return manifest


def _write_manifest(manifest: dict, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


# -- subcommands -----------------------------------------------------------

def cmd_ingest(args) -> int:
    out = Path(args.out)
    if args.squad:
        articles, records = eval_mod.convert_squad_v11(args.squad)
        if args.out_questions:
            eval_mod.write_questions(records, args.out_questions)
            log.info("wrote %d question records", len(records))
    else:
        articles = read_articles(args.articles)
    paragraphs = (p for a in articles for p in split_article(a))
    n = write_paragraphs(paragraphs, out)
    print(f"wrote {n} paragraphs to {out}")
    return 0


def cmd_index(args) -> int:
    stopwords = (load_stopwords(args.stopwords) if args.stopwords
                 else DEFAULT_STOPWORDS)
    index = InvertedIndex.build(
        read_paragraphs(args.paragraphs),
        params=Bm25Params(k1=args.k1, b=args.b),
        stopwords=stopwords)
    index.save(args.out)
    print(f"indexed {index.doc_count} paragraphs into {args.out} "
          f"(avg_doc_len={index.avg_doc_len:.3f})")
    return 0


def cmd_build_dataset(args) -> int:
    records, skipped = eval_mod.read_questions(args.questions)
    if skipped:
        log.warning("skipped %d malformed question records", skipped)
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
            if args.external_ranker:
                ranker = ScorerPool(args.external_ranker, "rank")
            else:
                model = (BuiltinRankerModel.load(args.ranker_model)
                         if args.ranker_model
                         else BuiltinRankerModel.zeros())
                ranker = BuiltinRanker(model, index)
            examples = build_dataset_aug2(records, index, paragraphs,
                                          ranker, m=args.m, n=args.n)
    n = write_rank_examples(examples, args.out)
    positives = sum(ex.label for ex in examples)
    print(f"wrote {n} examples ({positives} positive) to {args.out}")
    return 0


def cmd_train_ranker(args) -> int:
    index = InvertedIndex.load(args.index)
    datasets = [read_rank_examples(p) for p in args.dataset]
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
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            out.append((str(rec.get("qid", f"q{i}")), rec["question"]))
    return out


def cmd_answer(args) -> int:
    config = _load_config(args)
    pipeline, _ = _build_pipeline(args, config)
    if args.question is not None:
        batch = [("q0", args.question)]
    else:
        batch = _read_batch_questions(args.batch)
    results = pipeline.answer_batch([q for _, q in batch])
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for (qid, _), result in zip(batch, results):
            sink.write(dump_answer_line(qid, result) + "\n")
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


def cmd_tune_weights(args) -> int:
    config = _load_config(args)
    pipeline, _ = _build_pipeline(args, config)
    records, skipped = eval_mod.read_questions(args.questions)
    if skipped:
        log.warning("skipped %d malformed question records", skipped)
    best, report = fusion.tune_weights(records, pipeline,
                                       grid_step=args.grid_step)
    fusion.write_tuning_csv(report, args.report)
    best_em = max(point.em for point in report)
    print(f"best weights: w_retriever={best.w_retriever:.4f} "
          f"w_ranker={best.w_ranker:.4f} w_reader={best.w_reader:.4f} "
          f"(em={best_em:.4f}, {len(report)} grid points)")
    if args.out_config:
        cfg = dataclasses.replace(config, weights=best).to_dict()
        Path(args.out_config).write_text(
            json.dumps(cfg, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    pipeline, scorer_descs = _build_pipeline(args, config)
    records, skipped = eval_mod.read_questions(args.questions)
    n_grid = [int(n) for n in args.n_grid.split(",")]
    report, curves = eval_mod.run_eval(records, pipeline, n_grid,
                                       tau=args.tau, malformed_skipped=skipped)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _run_manifest(config, pipeline.index, scorer_descs, args.seed)
    report.manifest_key = manifest["manifest_key"]
    eval_mod.write_report_json(report, out_dir / "report.json")
    eval_mod.write_curves_csv(curves, out_dir / "curves.csv")
    _write_manifest(manifest, out_dir)
    print(f"em={report.em:.4f} f1={report.f1:.4f} over "
          f"{report.n_questions} questions -> {out_dir}")
    return 0


def cmd_bench(args) -> int:
    config = _load_config(args)
    pipeline, scorer_descs = _build_pipeline(args, config)
    records, _ = eval_mod.read_questions(args.questions)
    latency = eval_mod.run_benchmark(records, pipeline, runs=args.runs,
                                     queries_per_run=args.queries_per_run)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _run_manifest(config, pipeline.index, scorer_descs, args.seed)
    payload = latency.to_dict()
    payload["manifest_key"] = manifest["manifest_key"]
    (out_dir / "latency.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    _write_manifest(manifest, out_dir)
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
                   help="external ranker command line (wire protocol v1)")
    p.add_argument("--external-reader",
                   help="external reader command line (wire protocol v1)")
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
    p.add_argument("--k1", type=float, default=0.9, help="BM25 k1")
    p.add_argument("--b", type=float, default=0.4, help="BM25 b")
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
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.3)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--holdout", type=float, default=0.2,
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
    except MindstoneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
