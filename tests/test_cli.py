"""Command-line interface: subcommand flows, exit codes, config precedence."""

import csv
import hashlib
import json
import platform
import re
import shlex
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from mindstone import _kernels, cli, fusion
from mindstone import eval as eval_mod
from mindstone.cli import build_parser, main
from mindstone.corpus import load_paragraph_map
from mindstone.errors import StageError
from mindstone.index import InvertedIndex
from mindstone.pipeline import CONFIG_KEYS, Pipeline, PipelineConfig
from test_eval import _loop_run_eval
from test_fusion import _loop_tune_weights

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
        assert manifest["format_version"] == 5

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

    @pytest.mark.parametrize("method", ["aug1", "aug2"])
    def test_missing_paragraph_names_id_and_file(self, workdir, tmp_path,
                                                 capsys, method):
        lines = (workdir / "paragraphs.jsonl").read_text("utf-8")
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(lines.splitlines(True)[:100]), "utf-8")
        code = main(["build-dataset", "--method", method,
                     "--index", str(workdir / "idx"),
                     "--questions", str(FIXTURES / "f2_questions.jsonl"),
                     "--paragraphs", str(partial),
                     "--ranker-model", str(workdir / "model.json"),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        match = re.fullmatch(rf"error: {re.escape(str(partial))}: no "
                             r"paragraph text for '(.+)'", line)
        assert match, line
        assert f'"para_id": "{match[1]}"' in lines
        assert f'"para_id": "{match[1]}"' not in partial.read_text("utf-8")

    def test_model_file_is_loadable(self, workdir):
        model = json.loads((workdir / "model.json").read_text("utf-8"))
        assert model["feature_spec_version"] == 1
        assert len(model["feature_weights"]) == 6

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "-3", "epochs must be >= 0, got -3"),
        ("--lr", "-0.3", "learning_rate must be finite and > 0, got -0.3"),
        ("--lr", "nan", "learning_rate must be finite and > 0, got nan"),
        ("--l2", "-5", "l2 must be finite and >= 0, got -5.0"),
        ("--holdout", "2", "holdout_fraction must be in [0, 1), got 2.0"),
    ])
    def test_train_ranker_out_of_range_exits_one(self, workdir, tmp_path,
                                                 capsys, flag, value,
                                                 message):
        out = tmp_path / "model.json"
        code = main(["train-ranker", "--dataset",
                     str(workdir / "finetune.jsonl"),
                     "--index", str(workdir / "idx"), "--out", str(out),
                     flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out.exists()


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

    @pytest.mark.parametrize("edit", ["missing", "extra"])
    def test_paragraphs_not_the_index_documents_exit_one(self, workdir,
                                                         tmp_path, capsys,
                                                         edit):
        lines = (workdir / "paragraphs.jsonl").read_text(
            "utf-8").splitlines(True)
        if edit == "missing":
            kept, pid = lines[:3] + lines[4:], json.loads(lines[3])["para_id"]
            message = f"no paragraph text for indexed para_id {pid!r}"
        else:
            pid = "zz#extra"
            kept = lines + [json.dumps(dict(json.loads(lines[0]),
                                            para_id=pid)) + "\n"]
            message = f"para_id {pid!r} is not in the index"
        paragraphs = tmp_path / "paragraphs.jsonl"
        paragraphs.write_text("".join(kept), encoding="utf-8")
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(paragraphs), "--question", "q"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {paragraphs}: {message}"]

    def test_external_reader_answers_alike_at_both_protocols(self, workdir,
                                                             tmp_path):
        answers = []
        for protocol in ("1", "2"):
            out = tmp_path / f"v{protocol}.jsonl"
            reader = shlex.join([sys.executable, "-m",
                                 "mindstone.scorers.echo_scorer",
                                 "--protocol", protocol])
            assert main(["answer", "--index", str(workdir / "idx"),
                         "--paragraphs", str(workdir / "paragraphs.jsonl"),
                         "--ranker-model", str(workdir / "model.json"),
                         "--batch", str(FIXTURES / "f2_questions.jsonl"),
                         "--external-reader", reader,
                         "--out", str(out)]) == 0
            records = [json.loads(line)
                       for line in out.read_text("utf-8").splitlines()]
            for record in records:
                del record["trace"]["times_ms"]
            answers.append(records)
        assert len(answers[0]) == 200
        assert all("error" not in record for record in answers[0])
        assert answers[0] == answers[1]

    def test_failed_question_is_logged(self, workdir, monkeypatch, caplog,
                                       capsys):
        class FailingReader:
            def read_pool(self, question, para_ids, texts, k):
                raise StageError("read", "reader crashed")

        build = cli._build_pipeline

        def build_failing(args, config):
            pipeline, descs = build(args, config)
            return Pipeline(pipeline.index, pipeline.paragraphs,
                            pipeline.ranker, FailingReader(), config), descs

        monkeypatch.setattr(cli, "_build_pipeline", build_failing)
        with caplog.at_level("WARNING", logger="mindstone"):
            code = main(["answer", "--index", str(workdir / "idx"),
                         "--paragraphs", str(workdir / "paragraphs.jsonl"),
                         "--question", "What was the height of mount "
                                       "ardenfell?"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["error"] == "[read] reader crashed"
        assert [r.getMessage() for r in caplog.records
                if r.name == "mindstone"] == [
            "question q0 failed: [read] reader crashed"]


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

    @pytest.mark.parametrize("grid, rm3", [
        ("1,5,20,100", "--no-rm3"),
        ("1,2,3,5,20,100,150,500", "--rm3")])
    def test_eval_outputs_equal_loop_oracle(self, workdir, tmp_path,
                                            monkeypatch, grid, rm3):
        outputs = []
        for name, run_eval in (("first-hit", eval_mod.run_eval),
                               ("loop", _loop_run_eval)):
            monkeypatch.setattr(eval_mod, "run_eval", run_eval)
            out_dir = tmp_path / name
            assert main(["eval", "--index", str(workdir / "idx"),
                         "--paragraphs", str(workdir / "paragraphs.jsonl"),
                         "--ranker-model", str(workdir / "model.json"),
                         "--questions", str(FIXTURES / "f2_questions.jsonl"),
                         "--n-grid", grid, rm3,
                         "--out-dir", str(out_dir)]) == 0
            outputs.append([(out_dir / f).read_bytes()
                            for f in ("report.json", "curves.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("grid, bad", [("-1", "-1"), ("0", "0"),
                                           ("5,0,-1", "0")])
    def test_eval_cutoff_below_one_exits_one_naming_it(self, workdir,
                                                       tmp_path, capsys,
                                                       grid, bad):
        code = main(["eval", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--questions", str(FIXTURES / "f2_questions.jsonl"),
                     "--n-retriever", "5", "--n-grid", grid,
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 1
        assert f"recall cutoff {bad} is below 1" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize("tau", ["-1", "2", "nan"])
    def test_eval_tau_out_of_range_exits_one(self, workdir, tmp_path,
                                             capsys, tau):
        code = main(["eval", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--questions", str(FIXTURES / "f2_questions.jsonl"),
                     "--n-retriever", "5", "--tau", tau,
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: tau must be in [0, 1], got {float(tau)}"]
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_manifest_provenance_is_not_hashed(self, workdir, monkeypatch):
        args = (PipelineConfig(), InvertedIndex.load(workdir / "idx"),
                load_paragraph_map(workdir / "paragraphs.jsonl"),
                {"ranker": "builtin:zeros", "reader": "builtin:heuristic-v1"},
                0)
        manifest = cli._run_manifest(*args)
        assert manifest["provenance"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "kernel_backend": _kernels.backend()}
        # The key hashes the core fields alone.
        core = {k: manifest[k] for k in ("tool_version", "config",
                                         "index_checksum",
                                         "paragraphs_sha256", "scorers",
                                         "seed")}
        assert manifest["manifest_key"] == hashlib.sha256(
            json.dumps(core, sort_keys=True).encode("utf-8")).hexdigest()

        monkeypatch.setattr(platform, "python_version", lambda: "3.0.0")
        monkeypatch.setattr(np, "__version__", "1.0.0")
        monkeypatch.setattr(_kernels, "backend", lambda: "other")
        other = cli._run_manifest(*args)
        assert other["provenance"] == {"python": "3.0.0", "numpy": "1.0.0",
                                       "kernel_backend": "other"}
        assert other["manifest_key"] == manifest["manifest_key"]

    def test_manifest_key_names_the_paragraph_texts(self, workdir,
                                                    tmp_path):
        """One index, and a paragraph copy with each body's words reversed:
        the same tokens and index rows, but other texts to rank and read,
        so the runs get other keys."""
        original = workdir / "paragraphs.jsonl"
        rows = [json.loads(line)
                for line in original.read_text("utf-8").splitlines()]
        for row in rows:
            row["body"] = " ".join(reversed(row["body"].split(" ")))
        flipped = tmp_path / "reversed.jsonl"
        flipped.write_text("".join(json.dumps(row) + "\n" for row in rows),
                           encoding="utf-8")
        manifests = []
        for paragraphs in (original, flipped):
            out_dir = tmp_path / paragraphs.stem
            assert main(["eval", "--index", str(workdir / "idx"),
                         "--paragraphs", str(paragraphs),
                         "--questions", str(FIXTURES / "f2_questions.jsonl"),
                         "--n-retriever", "5", "--out-dir",
                         str(out_dir)]) == 0
            manifests.append(json.loads(
                (out_dir / "run_manifest.json").read_text("utf-8")))
        first, second = manifests
        assert first["index_checksum"] == second["index_checksum"]
        assert first["paragraphs_sha256"] != second["paragraphs_sha256"]
        assert first["manifest_key"] != second["manifest_key"]

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
        assert (set(latency["stage_spread_ms"])
                == set(latency["stage_breakdown_ms"]))

    def test_bench_logs_malformed_question_count(self, workdir, tmp_path,
                                                 caplog):
        questions = tmp_path / "questions.jsonl"
        questions.write_text(
            (FIXTURES / "f2_questions.jsonl").read_text("utf-8")
            + "not json\n" + '{"qid": "x", "question": "q"}\n',
            encoding="utf-8")
        with caplog.at_level("WARNING", logger="mindstone"):
            code = main(["bench", "--index", str(workdir / "idx"),
                         "--paragraphs", str(workdir / "paragraphs.jsonl"),
                         "--questions", str(questions),
                         "--n-retriever", "5", "--runs", "1",
                         "--queries-per-run", "5",
                         "--out-dir", str(tmp_path / "bench")])
        assert code == 0
        assert [r.getMessage() for r in caplog.records
                if r.name == "mindstone"] == [
            "skipped 2 malformed question records"]

    @pytest.mark.parametrize("queries_per_run", ["0", "-3"])
    def test_bench_queries_per_run_below_one_exits_one(
            self, workdir, tmp_path, capsys, queries_per_run):
        code = main(["bench", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--questions", str(FIXTURES / "f2_questions.jsonl"),
                     "--runs", "1", "--queries-per-run", queries_per_run,
                     "--out-dir", str(tmp_path / "bench")])
        assert code == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.splitlines() == [
            "error: queries_per_run must be >= 1"]

    def test_tune_weights_step_that_does_not_divide_one_exits_one(
            self, workdir, tmp_path, capsys):
        report = tmp_path / "tuning.csv"
        code = main(["tune-weights", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--questions", str(FIXTURES / "f2_questions.jsonl"),
                     "--grid-step", "0.4", "--report", str(report)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: grid_step must divide 1, got 0.4"]
        assert not report.exists()

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

    @pytest.mark.parametrize("grid_step", ["0.05", "0.1"])
    def test_tune_weights_outputs_equal_loop_oracle(self, workdir, tmp_path,
                                                    monkeypatch, grid_step):
        outputs = []
        for name, tuner in (("array", fusion.tune_weights),
                            ("loop", _loop_tune_weights)):
            monkeypatch.setattr(fusion, "tune_weights", tuner)
            report = tmp_path / f"{name}.csv"
            out_config = tmp_path / f"{name}.json"
            assert main(["tune-weights", "--index", str(workdir / "idx"),
                         "--paragraphs", str(workdir / "paragraphs.jsonl"),
                         "--ranker-model", str(workdir / "model.json"),
                         "--questions", str(FIXTURES / "f2_questions.jsonl"),
                         "--grid-step", grid_step, "--report", str(report),
                         "--out-config", str(out_config)]) == 0
            outputs.append((report.read_bytes(), out_config.read_bytes()))
        assert outputs[0] == outputs[1]


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

    def test_flag_error_does_not_blame_valid_config_file(self, workdir,
                                                         tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n_retriever": 20}), encoding="utf-8")
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--config", str(config), "--n-retriever", "-1",
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: n_retriever must be >= 0"]

    def test_flag_error_with_invalid_config_file_names_the_file(
            self, workdir, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n_retriever": -5}), encoding="utf-8")
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--config", str(config), "--n-retriever", "-1",
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {config}: n_retriever must be >= 0"]

    def test_config_file_completed_by_weight_flags_loads(self, workdir,
                                                         tmp_path, capsys):
        # Alone the file's weights sum to 1.5; the flags make them sum to 1.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n_retriever": 4, "fusion": {
            "w_retriever": 0.5, "w_ranker": 0.5, "w_reader": 0.5}}),
            encoding="utf-8")
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--config", str(config), "--w-retriever", "0.25",
                     "--w-ranker", "0.25",
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["trace"]["counts"]["retrieved"] == 4

    def test_nan_weight_in_config_file_exits_one_naming_it(
            self, workdir, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"fusion": {"w_retriever": NaN, "w_ranker": 0.5, '
                          '"w_reader": 0.5}}', encoding="utf-8")
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--config", str(config),
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {config}: fusion weights must be finite, got "
            f"(nan, 0.5, 0.5)"]

    def test_nan_weight_flag_error_names_no_file(self, workdir, tmp_path,
                                                 capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n_retriever": 20}), encoding="utf-8")
        code = main(["answer", "--index", str(workdir / "idx"),
                     "--paragraphs", str(workdir / "paragraphs.jsonl"),
                     "--config", str(config), "--w-retriever", "nan",
                     "--w-ranker", "0.5", "--w-reader", "0.5",
                     "--question", "What was the height of mount ardenfell?"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: fusion weights must be finite, got (nan, 0.5, 0.5)"]

    @pytest.mark.parametrize("key,attr", [
        row[:2] for row in CONFIG_KEYS if row[2] is not None])
    def test_every_config_flag_overrides_its_key(self, key, attr):
        """Each flag dest that CONFIG_KEYS names is one the parser sets: a
        misspelt dest would drop that flag's override without an error."""
        weights = {"w-retriever": "0.25", "w-ranker": "0.25",
                   "w-reader": "0.25"}
        if key.startswith("fusion."):
            weights[key[len("fusion."):].replace("_", "-")] = "0.5"
        weight_flags = [arg for name, w in weights.items()
                        for arg in (f"--{name}", w)]
        argv, value = {
            "n_retriever": (["--n-retriever", "7"], 7),
            "read_fraction": (["--read-fraction", "0.5"], 0.5),
            "n_reader": (["--n-reader", "3"], 3),
            "k_spans_per_paragraph": (["--k-spans", "2"], 2),
            "rm3.enabled": (["--rm3"], True),
            "rm3.alpha": (["--rm3-alpha", "0.25"], 0.25),
            "rm3.terms": (["--rm3-terms", "9"], 9),
            "rm3.second_pass_n": (["--rm3-second-pass-n", "11"], 11),
            "fusion.w_retriever": (weight_flags, 0.5),
            "fusion.w_ranker": (weight_flags, 0.5),
            "fusion.w_reader": (weight_flags, 0.5),
        }[key]
        assert attrgetter(attr)(PipelineConfig()) != value
        args = build_parser().parse_args(
            ["answer", "--index", "idx", "--paragraphs", "p.jsonl",
             "--question", "q", *argv])
        assert attrgetter(attr)(cli._load_config(args)) == value


_PARAGRAPH = ('{"para_id": "a#0", "article_id": "a", "title": "T", '
              '"body": "x", "position": 0}\n')
_EXAMPLE = '{"question": "q", "para_id": "a#0", "text": "x", "label": 1}\n'
_QUESTION = "What was the height of mount ardenfell?"
_PIPELINE = ["--index", "{idx}", "--paragraphs", "{paras}"]


class TestMalformedInputs:
    """A malformed input file exits 1 with one error line naming the file
    (and the line, where there is one), never with a traceback."""

    @pytest.mark.parametrize("content, argv, where", [
        (_PARAGRAPH + '{"para_id": "a#1", "title": "T", "body": "y", '
         '"position": 1}\n',
         ["index", "--in", "{bad}", "--out", "{out}"],
         ":2: missing field 'article_id'"),
        (_PARAGRAPH + '{"para_id": "a#1", "article_id"\n',
         ["index", "--in", "{bad}", "--out", "{out}"],
         ":2: Expecting ':' delimiter"),
        ('\n"an article"\n',
         ["ingest", "--articles", "{bad}", "--out", "{out}"],
         ":2: not a JSON object"),
        (_EXAMPLE + '["q", "a#0", "x", 1]\n',
         ["train-ranker", "--dataset", "{bad}", "--index", "{idx}",
          "--out", "{out}"], ":2: not a JSON object"),
        (_EXAMPLE.replace('"label": 1', '"label": 2'),
         ["train-ranker", "--dataset", "{bad}", "--index", "{idx}",
          "--out", "{out}"], ":1: label must be 0 or 1"),
        ('["q0", "a question"]\n',
         ["answer", *_PIPELINE, "--batch", "{bad}"], ":1: not a JSON object"),
        ('{"qid": "q0", "question": "x"}\n{"qid": "q1"}\n',
         ["answer", *_PIPELINE, "--batch", "{bad}"],
         ":2: missing field 'question'"),
        ('{"qid": "q0", "question": 5}\n',
         ["answer", *_PIPELINE, "--batch", "{bad}"],
         ":1: question: expected a string, got a number"),
        ("[1]", ["answer", *_PIPELINE, "--ranker-model", "{bad}",
                 "--question", _QUESTION], ": not a JSON object"),
        ('{"bias": 0.0, "feature_spec_version": 1}',
         ["answer", *_PIPELINE, "--ranker-model", "{bad}",
          "--question", _QUESTION], ": missing field 'feature_weights'"),
        ('{"feature_weights": 1, "bias": 0.0, "feature_spec_version": 1}',
         ["answer", *_PIPELINE, "--ranker-model", "{bad}",
          "--question", _QUESTION],
         ": feature_weights: expected an array, got a number"),
        ('{"feature_weights": [0, 0, 0, 0, 0, 0], "bias": true, '
         '"feature_spec_version": 1}',
         ["answer", *_PIPELINE, "--ranker-model", "{bad}",
          "--question", _QUESTION], ": bias: expected a number, got a boolean"),
        ('{"feature_weights": [0, 0, 0, 0, false, 0], "bias": 0.0, '
         '"feature_spec_version": 1}',
         ["answer", *_PIPELINE, "--ranker-model", "{bad}",
          "--question", _QUESTION],
         ": feature_weights[4]: expected a number, got a boolean"),
        ('{"feature_weights": [0, 0, 0, 0, 0, 0], "bias": 0.0, '
         '"feature_spec_version": "seven"}',
         ["answer", *_PIPELINE, "--ranker-model", "{bad}",
          "--question", _QUESTION],
         ": feature_spec_version: expected an integer, got a string"),
        ('{"feature_weights": [0, 0, 0, 0, 0, 0], "bias": 0.0, '
         '"feature_spec_version": 2}',
         ["answer", *_PIPELINE, "--ranker-model", "{bad}",
          "--question", _QUESTION], ": feature_spec_version must be 1, got 2"),
        ('{"feature_weights": [0, 0, 0, 0, 0, 0], "bias": 0.0, '
         '"feature_spec_version": true}',
         ["answer", *_PIPELINE, "--ranker-model", "{bad}",
          "--question", _QUESTION],
         ": feature_spec_version: expected an integer, got a boolean"),
        ('{\n  "n_retriever": 20,\n  "n_reader" 2\n}',
         ["answer", *_PIPELINE, "--config", "{bad}", "--question", _QUESTION],
         ":3: Expecting ':' delimiter"),
        ('[]', ["answer", *_PIPELINE, "--config", "{bad}",
                "--question", _QUESTION], ": not a JSON object"),
        ('{"n_retriever": "20"}', ["answer", *_PIPELINE, "--config", "{bad}",
                                   "--question", _QUESTION],
         ": n_retriever: expected an integer, got a string"),
        ('{"rm3": {"term": 5}}', ["answer", *_PIPELINE, "--config", "{bad}",
                                  "--question", _QUESTION],
         ": unknown config key 'rm3.term'"),
        ('{"fusion": {"w_ranker": 0.5}}',
         ["answer", *_PIPELINE, "--config", "{bad}", "--question", _QUESTION],
         ": fusion weights must sum to 1"),
        ('{"feature_weights": [0, 0, 0, 0, 0], "bias": 0.0, '
         '"feature_spec_version": 1}',
         ["answer", *_PIPELINE, "--ranker-model", "{bad}",
          "--question", _QUESTION],
         ": feature_weights holds 5 weights, not 6"),
        # answer --batch qids: absent, a string or an integer.
        ('{"question": "x"}\n{"qid": null, "question": "x"}\n',
         ["answer", *_PIPELINE, "--batch", "{bad}"],
         ":2: qid: expected a string or an integer, got null"),
        ('{"qid": {"a": 1}, "question": "x"}\n',
         ["answer", *_PIPELINE, "--batch", "{bad}"],
         ":1: qid: expected a string or an integer, got an object"),
        ('{"qid": 1.5, "question": "x"}\n',
         ["answer", *_PIPELINE, "--batch", "{bad}"],
         ":1: qid: expected a string or an integer, got a number"),
        # Record values of the wrong JSON type.
        (_PARAGRAPH.replace('"body": "x"', '"body": 5'),
         ["index", "--in", "{bad}", "--out", "{out}"],
         ":1: body: expected a string, got a number"),
        (_PARAGRAPH.replace('"title": "T", "body": "x"',
                            '"title": "", "body": 5'),
         ["index", "--in", "{bad}", "--out", "{out}"],
         ":1: body: expected a string, got a number"),
        (_EXAMPLE.replace('"label": 1', '"label": true'),
         ["train-ranker", "--dataset", "{bad}", "--index", "{idx}",
          "--out", "{out}"], ":1: label: expected an integer, got a boolean"),
        # Bytes that are not UTF-8.
        (b"\xff\xfe" + _PARAGRAPH.encode("utf-16-le"),
         ["index", "--in", "{bad}", "--out", "{out}"],
         ":1: not valid UTF-8 (byte 0xff"),
        (b'{"qid": "q0", "question": "x"}\n{"qid": "q1", "question": '
         b'"caf\xe9"}\n', ["answer", *_PIPELINE, "--batch", "{bad}"],
         ":2: not valid UTF-8 (byte 0xe9"),
        (b'{"qid": "q0", "question": "x", "answers": ["y"]}\n\n'
         b'{"qid": "q1", "question": "\xc3", "answers": ["y"]}\n',
         ["build-dataset", "--method", "finetune", "--questions", "{bad}",
          "--paragraphs", "{paras}", "--out", "{out}"],
         ":3: not valid UTF-8 (byte 0xc3"),
        (b'{\n  "n_retriever": "\x80"\n}',
         ["answer", *_PIPELINE, "--config", "{bad}", "--question", _QUESTION],
         ":2: not valid UTF-8 (byte 0x80"),
        # SQuAD files of the wrong shape.
        ('{"version": "1.1"}', ["ingest", "--squad", "{bad}",
                                 "--out", "{out}"], ": missing field 'data'"),
        ('{"data": [1]}', ["ingest", "--squad", "{bad}", "--out", "{out}"],
         ": data[0]: expected an object, got a number"),
        (json.dumps({"data": [{"title": "T", "paragraphs": [
            {"context": "c", "qas": []},
            {"context": "c", "qas": [
                {"id": "1", "question": "q?", "answers": [{"text": "c"}]},
                {"id": "2", "question": "q?", "answers": "c"}]}]}]}),
         ["ingest", "--squad", "{bad}", "--out", "{out}"],
         ": data[0].paragraphs[1].qas[1].answers: expected an array, "
         "got a string"),
        (json.dumps({"data": [{"paragraphs": [{"context": "c", "qas": [
            {"id": 7, "question": "q?", "answers": []}]}]}]}),
         ["ingest", "--squad", "{bad}", "--out", "{out}"],
         ": data[0].paragraphs[0].qas[0]: question '7' has no gold answers"),
        (json.dumps({"data": [{"paragraphs": [{"context": None}]}]}),
         ["ingest", "--squad", "{bad}", "--out", "{out}"],
         ": data[0].paragraphs[0].context: expected a string, got null"),
    ])
    def test_error_names_file_and_line(self, workdir, tmp_path, capsys,
                                       content, argv, where):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content if isinstance(content, bytes)
                        else content.encode("utf-8"))
        paths = {"bad": bad, "out": tmp_path / "out", "idx": workdir / "idx",
                 "paras": workdir / "paragraphs.jsonl"}
        code = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"error: {bad}{where}")


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
