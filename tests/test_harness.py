import json
import os
import re
from pathlib import Path

import pytest

from confgame import cli, fixtures, game, gameio
from confgame.harness import ExperimentConfig, run_experiment


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_grid=(100, 100))
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(fixture="nope")


def test_smoke_run_emits_all_metrics(tmp_path):
    cfg = ExperimentConfig(fixture="t1", n_grid=(100,), seeds=(0,), out_dir=str(tmp_path))
    paths = run_experiment(cfg)
    lines = Path(paths["report"]).read_text().splitlines()
    assert lines[0] == "experiment,n,seed,metric,value,status"
    metrics = {line.split(",")[3] for line in lines[1:]}
    assert metrics == {"rmse_theta", "coverage", "j_error", "gap", "pess_value"}
    manifest = json.loads(Path(paths["manifest"]).read_text())
    assert manifest["experiment_id"] == cfg.config_hash()


def test_reports_are_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    kw = dict(fixture="t1", n_grid=(100, 300), seeds=(0, 1))
    p1 = run_experiment(ExperimentConfig(out_dir=str(out1), **kw))
    p2 = run_experiment(ExperimentConfig(out_dir=str(out2), **kw))
    assert Path(p1["report"]).read_text() == Path(p2["report"]).read_text()
    assert Path(p1["summary"]).read_text() == Path(p2["summary"]).read_text()


def test_thread_pool_does_not_change_bytes(tmp_path):
    kw = dict(fixture="t1", n_grid=(100, 300), seeds=(0, 1))
    p1 = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "a"), **kw))
    os.environ["CONFGAME_THREADS"] = "4"
    try:
        p2 = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "b"), **kw))
    finally:
        del os.environ["CONFGAME_THREADS"]
    assert Path(p1["report"]).read_text() == Path(p2["report"]).read_text()


@pytest.mark.parametrize("value", ["x", "2.5", ""])
def test_bad_thread_count_fails_fast_and_names_itself(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("CONFGAME_THREADS", value)
    out = tmp_path / "out"
    message = f"CONFGAME_THREADS={value!r} is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(ExperimentConfig(fixture="t1", n_grid=(100,), seeds=(0,), out_dir=str(out)))
    assert not out.exists()
    assert cli.main(["benchmark", "--fixture", "t1", "--n", "500", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"
    assert not out.exists()


def test_thread_counts_below_one_run_one_cell_at_a_time(tmp_path, monkeypatch):
    kw = dict(fixture="t1", n_grid=(100,), seeds=(0,))
    p1 = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "a"), **kw))
    monkeypatch.setenv("CONFGAME_THREADS", "-3")
    p2 = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "b"), **kw))
    assert Path(p1["report"]).read_text() == Path(p2["report"]).read_text()


def test_failed_cell_is_isolated(tmp_path):
    # a single-trajectory cell has a constant instrument -> DegenerateIV
    cfg = ExperimentConfig(fixture="t1", n_grid=(1, 300), seeds=(0,), out_dir=str(tmp_path))
    paths = run_experiment(cfg)
    lines = Path(paths["report"]).read_text().splitlines()[1:]
    by_n = {}
    for line in lines:
        _, n, _, metric, value, status = line.split(",")
        by_n.setdefault(int(n), set()).add(status)
    assert by_n[1] == {"failed"}
    assert by_n[300] == {"ok"}
    manifest = json.loads(Path(paths["manifest"]).read_text())
    assert len(manifest["failures"]) == 1


def test_cli_validate_exit_codes(tmp_path):
    assert cli.main(["validate", "--fixture", "t1"]) == 0
    assert cli.main(["validate", "--fixture", "negative-control"]) == 1
    assert cli.main(["nonsense"]) == 64
    assert cli.main(["validate"]) == 64  # missing --spec/--fixture
    assert cli.main(["identify", "--data", str(tmp_path / "missing.csv")]) == 2


def test_cli_simulate_rejects_a_negative_row_count(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert cli.main(["simulate", "--fixture", "t1", "--n", "-1", "--out", str(out)]) == 2
    assert "ValueError: n must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_pipeline(tmp_path):
    data = tmp_path / "d.csv"
    assert cli.main(["simulate", "--fixture", "t1", "--n", "3000", "--seeds", "1", "--out", str(data)]) == 0
    assert cli.main(["identify", "--data", str(data), "--fixture", "t1"]) == 0
    pol_path = tmp_path / "p.policy"
    gameio.write_policy(
        game.constant_policy_pair(fixtures.t1_spec(), 1.0, 0.5, 0.5), str(pol_path)
    )
    assert cli.main(["evaluate", "--data", str(data), "--policy", str(pol_path), "--fixture", "t1"]) == 0
    learned = tmp_path / "learned.csv"
    assert cli.main(["learn", "--data", str(data), "--fixture", "t1", "--out", str(learned)]) == 0
    assert learned.exists()


def test_cli_benchmark_with_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "fixture": "t1", "n_grid": [100], "seeds": [0], "out_dir": str(tmp_path / "out")
    }))
    assert cli.main(["benchmark", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.csv").exists()


def test_cli_benchmark_rejects_unknown_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fixture": "t1", "bogus": 1}))
    assert cli.main(["benchmark", "--config", str(cfg_path)]) == 2
