"""Command-line interface: subcommand flows, exit codes, config precedence."""

import csv
import json
from pathlib import Path

import pytest

from mindstone.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """One ingest+index+train flow shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cliflow")
    paras = root / "paragraphs.jsonl"
    idx = root / "idx"
    assert main(["ingest", "--articles",
                 str(FIXTURES / "f2_articles.jsonl"),
                 "--out", str(paras)]) == 0
    assert main(["index", "--in", str(paras), "--out", str(idx),
                 "--k1", "0.9", "--b", "0.4"]) == 0
    ft = root / "finetune.jsonl"
    assert main(["build-dataset", "--method", "finetune",
                 "--questions", str(FIXTURES / "f2_questions.jsonl"),
                 "--paragraphs", str(paras), "--out", str(ft)]) == 0
    model = root / "model.json"
    assert main(["train-ranker", "--dataset", str(ft), "--index", str(idx),
                 "--out", str(model)]) == 0
    return root


class TestIngestAndIndex:
    def test_paragraph_count_matches_fixture(self, workdir):
        lines = (workdir / "paragraphs.jsonl").read_text("utf-8").splitlines()
        fixture = (FIXTURES / "f2_paragraphs.jsonl").read_text("utf-8")
        assert len(lines) == len(fixture.splitlines())

    def test_manifest_echoes_parameters(self, workdir):
        manifest = json.loads(
            (workdir / "idx" / "manifest.json").read_text("utf-8"))
        assert manifest["k1"] == 0.9
        assert manifest["b"] == 0.4
        assert manifest["format_version"] == 2

    def test_squad_ingest(self, tmp_path):
        squad = {"data": [{"title": "T", "paragraphs": [
            {"context": "alpha beta.", "qas": [
                {"id": "1", "question": "q?",
                 "answers": [{"text": "alpha", "answer_start": 0}]}]}]}]}
        sq = tmp_path / "squad.json"
        sq.write_text(json.dumps(squad), encoding="utf-8")
        out = tmp_path / "p.jsonl"
        qs = tmp_path / "q.jsonl"
        assert main(["ingest", "--squad", str(sq), "--out", str(out),
                     "--out-questions", str(qs)]) == 0
        assert len(out.read_text("utf-8").splitlines()) == 1
        record = json.loads(qs.read_text("utf-8"))
        assert record["answers"] == ["alpha"]


class TestDatasetsAndTraining:
    def test_dataset_file_shape(self, workdir):
        line = json.loads(
            (workdir / "finetune.jsonl").read_text("utf-8").splitlines()[0])
        assert set(line) == {"question", "para_id", "text", "label"}

    def test_aug2_requires_index(self, workdir, capsys):
        code = main(["build-dataset", "--method", "aug2",
                     "--questions", str(FIXTURES / "f2_questions.jsonl"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--out", str(workdir / "x.jsonl")])
        assert code == 1

    def test_model_file_is_loadable(self, workdir):
        model = json.loads((workdir / "model.json").read_text("utf-8"))
        assert model["feature_spec_version"] == 1
        assert len(model["feature_weights"]) == 6


class TestAnswer:
    def test_single_question_to_stdout(self, workdir, capsys):
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--ranker-model", str(workdir / "model.json"),
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["qid"] == "q0"
        assert record["answers"]

    def test_batch_file_output(self, workdir, tmp_path):
        out = tmp_path / "answers.jsonl"
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--ranker-model", str(workdir / "model.json"),
                     "--batch", str(FIXTURES / "f2_questions.jsonl"),
                     "--n-retriever", "10", "--out", str(out)])
        assert code == 0
        lines = out.read_text("utf-8").splitlines()
        assert len(lines) == 200


class TestEvalAndBench:
    def test_eval_outputs(self, workdir, tmp_path):
        out_dir = tmp_path / "eval"
        code = main(["eval", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--ranker-model", str(workdir / "model.json"),
                     "--questions", str(FIXTURES / "f2_questions.jsonl"),
                     "--n-grid", "1,5,20,100", "--out-dir", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text("utf-8"))
        assert 0.0 <= report["em"] <= report["f1"] <= 1.0
        assert report["latency"] is None
        manifest = json.loads(
            (out_dir / "run_manifest.json").read_text("utf-8"))
        assert report["manifest_key"] == manifest["manifest_key"]
        with open(out_dir / "curves.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "retriever_recall", "ranker_recall",
                           "strict_retriever_recall", "strict_ranker_recall",
                           "topn_em"]
        assert len(rows) == 5
        for col in range(1, 6):
            values = [float(r[col]) for r in rows[1:]]
            assert values == sorted(values), f"column {col} not monotone"

    def test_bench_outputs(self, workdir, tmp_path):
        out_dir = tmp_path / "bench"
        code = main(["bench", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--ranker-model", str(workdir / "model.json"),
                     "--questions", str(FIXTURES / "f2_questions.jsonl"),
                     "--n-retriever", "10", "--runs", "2",
                     "--queries-per-run", "20", "--out-dir", str(out_dir)])
        assert code == 0
        latency = json.loads((out_dir / "latency.json").read_text("utf-8"))
        assert latency["runs"] == 2
        assert latency["queries_per_run"] == 20
        assert latency["reported_ms"] == min(latency["per_run_mean_ms"])

    def test_tune_weights(self, workdir, tmp_path):
        report = tmp_path / "tuning.csv"
        out_config = tmp_path / "tuned.json"
        code = main(["tune-weights", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--ranker-model", str(workdir / "model.json"),
                     "--questions", str(FIXTURES / "f2_questions.jsonl"),
                     "--n-retriever", "10", "--grid-step", "0.5",
                     "--report", str(report),
                     "--out-config", str(out_config)])
        assert code == 0
        with open(report, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 6  # header + C(4,2) grid points at 0.5
        tuned = json.loads(out_config.read_text("utf-8"))
        total = sum(tuned["fusion"].values())
        assert total == pytest.approx(1.0)
        assert tuned["n_retriever"] == 10
        # The written config loads back through --config unchanged.
        out_dir = tmp_path / "bench"
        code = main(["bench", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--ranker-model", str(workdir / "model.json"),
                     "--questions", str(FIXTURES / "f2_questions.jsonl"),
                     "--config", str(out_config), "--runs", "1",
                     "--queries-per-run", "5", "--out-dir", str(out_dir)])
        assert code == 0
        manifest = json.loads(
            (out_dir / "run_manifest.json").read_text("utf-8"))
        assert manifest["config"] == tuned


class TestConfigPrecedence:
    def test_flag_beats_config_file(self, workdir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n_retriever": 50,
                                      "rm3": {"enabled": False}}),
                          encoding="utf-8")
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--config", str(config), "--n-retriever", "7",
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["trace"]["counts"]["retrieved"] <= 7

    def test_config_file_beats_default(self, workdir, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n_retriever": 4}), encoding="utf-8")
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--config", str(config),
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["trace"]["counts"]["retrieved"] == 4

    def test_misspelt_config_key_exits_one_naming_it(self, workdir, tmp_path,
                                                     capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"rm3": {"enabled": True, "term": 5}}),
                          encoding="utf-8")
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--config", str(config),
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 1
        captured = capsys.readouterr()
        assert "rm3.term" in captured.err
        assert captured.out == ""


    def test_wrong_config_type_exits_one_naming_it(self, workdir, tmp_path,
                                                   capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n_retriever": "20"}), encoding="utf-8")
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--config", str(config),
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: ") and "n_retriever" in lines[0]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["index", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_runtime_error_returns_one(self, tmp_path, capsys):
        code = main(["index", "--in", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "idx")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_index_exits_one(self, workdir, tmp_path, capsys):
        import shutil
        idx = tmp_path / "idx"
        shutil.copytree(workdir / "idx", idx)
        payload = (idx / "arrays.npz").read_bytes()
        (idx / "arrays.npz").write_bytes(payload[:len(payload) // 2])
        code = main(["answer", "--index", str(idx),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: ") and "arrays.npz" in lines[0]

    def test_help_exits_zero_everywhere(self, capsys):
        parser = build_parser()
        for name in ("ingest", "index", "build-dataset", "train-ranker",
                     "answer", "tune-weights", "eval", "bench"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0
            capsys.readouterr()

    def test_no_subcommand_accepts_workers(self, capsys):
        parser = build_parser()
        for name in ("ingest", "index", "build-dataset", "train-ranker",
                     "answer", "tune-weights", "eval", "bench"):
            with pytest.raises(SystemExit):
                parser.parse_args([name, "--help"])
            assert "--workers" not in capsys.readouterr().out, name
        pipeline_args = ["--index", "idx", "--paragraphs", "p.jsonl"]
        for argv in (["answer", *pipeline_args, "--question", "q"],
                     ["eval", *pipeline_args, "--questions", "q.jsonl",
                      "--out-dir", "out"],
                     ["bench", *pipeline_args, "--questions", "q.jsonl",
                      "--out-dir", "out"]):
            parser.parse_args(argv)
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*argv, "--workers", "2"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --workers" in \
                capsys.readouterr().err

    def test_help_documents_config_keys(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["answer", "--help"])
        text = capsys.readouterr().out
        for flag in ("--n-retriever", "--read-fraction", "--n-reader",
                     "--rm3", "--rm3-alpha", "--rm3-terms",
                     "--rm3-second-pass-n", "--k-spans", "--w-retriever",
                     "--w-ranker", "--w-reader", "--seed"):
            assert flag in text, f"{flag} missing from help"
