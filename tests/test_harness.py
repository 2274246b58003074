import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
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


def test_numpy_scalar_fields_hash_run_and_write_as_python_numbers(tmp_path):
    plain = ExperimentConfig(fixture="t1", n_grid=(100,), seeds=(0, 1), out_dir=str(tmp_path / "a"))
    cfg = ExperimentConfig(
        fixture="t1", n_grid=(np.int64(100),), seeds=(np.int32(0), np.uint8(1)), alpha=np.float64(2.0),
        varsigma=np.float32(0.0), d=np.int16(1), c_eta=np.float64(2.0), k_members=np.int64(16),
        cross_fit=np.bool_(False), run_learner=np.bool_(True), max_candidates=np.int64(4096),
        out_dir=str(tmp_path / "b"),
    )
    assert replace(cfg, out_dir=plain.out_dir) == plain and cfg.config_hash() == plain.config_hash()
    assert all(type(getattr(cfg, name)) is type(getattr(plain, name)) for name in vars(plain))
    assert all(type(v) is int for v in cfg.n_grid + cfg.seeds)
    paths, want = run_experiment(cfg), run_experiment(plain)
    assert json.loads(Path(paths["manifest"]).read_text())["config"] == json.loads(plain.canonical_json())
    for name in ("report", "summary"):
        assert Path(paths[name]).read_text() == Path(want[name]).read_text()


# the pinned hashes are those of the configs before their fields were normalised
@pytest.mark.parametrize("kw, digest", [
    ({}, "8a9335d74ae74f68"),
    (dict(fixture="t1", n_grid=(100,), seeds=(0,)), "a3e4c78eb0e465e0"),
    (dict(fixture="t2", n_grid=(500, 2000), seeds=(0, 1, 2), k_members=4, d=2, alpha=1.5, cross_fit=True,
          max_candidates=512), "225e1c5c589cfdc4"),
])
def test_plain_configs_keep_their_hash(kw, digest):
    assert ExperimentConfig(**kw).config_hash() == digest


@pytest.mark.parametrize("kw, message", [
    (dict(n_grid=(-5,)), "n_grid entries must be integers >= 1, got -5"),
    (dict(n_grid=(0, 100)), "n_grid entries must be integers >= 1, got 0"),
    (dict(n_grid=(500.9,)), "n_grid entries must be integers >= 1, got 500.9"),
    (dict(n_grid=(500.0,)), "n_grid entries must be integers >= 1, got 500.0"),
    (dict(n_grid=(True,)), "n_grid entries must be integers >= 1, got True"),
    (dict(n_grid=500), "n_grid must be a sequence of integers, got 500"),
    (dict(seeds="12"), "seeds must be a sequence of integers, got '12'"),
    (dict(seeds=(1.7,)), "seeds entries must be integers >= 0, got 1.7"),
    (dict(seeds=(0, -1)), "seeds entries must be integers >= 0, got -1"),
    (dict(seeds=(False,)), "seeds entries must be integers >= 0, got False"),
    (dict(k_members=True), "k_members must be an integer, got True"),
    (dict(k_members=4.0), "k_members must be an integer, got 4.0"),
    (dict(d=np.float64(1.5)), "d must be an integer, got 1.5"),
    (dict(max_candidates="512"), "max_candidates must be an integer, got 512"),
    (dict(alpha=True), "alpha must be a real number, got True"),
    (dict(c_eta="2"), "c_eta must be a real number, got 2"),
    (dict(cross_fit=1), "cross_fit must be a bool, got 1"),
])
def test_bad_fields_fail_before_any_output(tmp_path, kw, message):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(ExperimentConfig(fixture="t1", out_dir=str(out), **kw))
    assert not out.exists()


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


def test_cli_benchmark_rejects_a_row_count_that_is_not_a_list(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fixture": "t1", "n_grid": 500, "out_dir": str(tmp_path / "out")}))
    assert cli.main(["benchmark", "--config", str(cfg_path)]) == 2
    assert "n_grid must be a sequence of integers, got 500" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_benchmark_rejects_unknown_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"fixture": "t1", "bogus": 1}))
    assert cli.main(["benchmark", "--config", str(cfg_path)]) == 2
