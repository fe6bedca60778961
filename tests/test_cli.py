"""Command-line driver: runs, sweeps, verification, previews, exit codes."""

import csv
import json

import pytest

from halfband import cli
from halfband.cli import CSV_COLUMNS, main
from halfband.errors import NumericalError

TINY = {
    "seed": 404,
    "dist": {"family": "gaussian", "d": 3},
    "noise": {"kind": "massart", "eta": 0.1},
    "epsilon": 0.45,
    "delta": 0.05,
    "profile": "desk",
    "excess_mc_samples": 20000,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(out_dir):
    with open(out_dir / "results.csv") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_rows_and_summary(tmp_path):
    cfg = dict(TINY, replicates=2, out=str(tmp_path / "out"))
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    rows = read_rows(tmp_path / "out")
    assert len(rows) == 2
    assert list(rows[0]) == CSV_COLUMNS
    assert rows[0]["replicate"] == "0" and rows[1]["replicate"] == "1"
    for row in rows:
        assert row["error"] == ""
        assert int(row["label_calls"]) == int(row["init_labels"]) + int(row["main_labels"])
        assert float(row["feasibility_gap"]) <= 1e-9
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["replicates"] == 2
    assert summary["failures"] == 0
    assert summary["labels"]["min"] == summary["labels"]["max"]  # fixed schedule


def test_run_label_calls_match_schedule_preview(tmp_path):
    run_cfg = dict(TINY, replicates=1, out=str(tmp_path / "run"))
    assert main(["run", "--config", write_config(tmp_path, run_cfg, "run.json")]) == 0
    prev_cfg = dict(TINY, out=str(tmp_path / "prev"))
    assert main(["preview-schedule", "--config",
                 write_config(tmp_path, prev_cfg, "prev.json")]) == 0
    sched = json.loads((tmp_path / "prev" / "preview_schedule.json").read_text())
    row = read_rows(tmp_path / "run")[0]
    assert int(row["label_calls"]) == sched["total_label_budget"]
    assert int(row["init_labels"]) == sched["init_label_total"]
    assert int(row["main_labels"]) == sched["main_label_total"]


def test_rerun_bytes_identical_except_wall_time(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = dict(TINY, replicates=2, trace=True, out=str(tmp_path / name))
        assert main(["run", "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
        outs.append(tmp_path / name)

    def strip_wall(path):
        lines = path.read_text().splitlines()
        assert CSV_COLUMNS[-1] == "wall_time_s"
        return [line.rsplit(",", 1)[0] for line in lines]

    assert strip_wall(outs[0] / "results.csv") == strip_wall(outs[1] / "results.csv")
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    assert (outs[0] / "trace.jsonl").read_bytes() == (outs[1] / "trace.jsonl").read_bytes()


def test_trace_flag_writes_epoch_lines(tmp_path):
    cfg = dict(TINY, replicates=1, out=str(tmp_path / "out"))
    assert main(["run", "--config", write_config(tmp_path, cfg), "--trace"]) == 0
    lines = [json.loads(s) for s in
             (tmp_path / "out" / "trace.jsonl").read_text().splitlines()]
    assert lines
    stages = {entry["stage"] for entry in lines}
    assert stages == {"init", "main"}
    for entry in lines:
        assert entry["replicate"] == 0
        assert {"j", "labels", "ex_calls", "angle"} <= set(entry)
        if entry["stage"] == "main":
            assert {"r", "b", "T"} <= set(entry)


def test_sweep_eta_grid_recovers_quadratic_rate(tmp_path):
    cfg = {
        "seed": 1,
        "dist": {"family": "gaussian", "d": 10},
        "noise": {"kind": "massart", "eta": 0.1},
        "epsilon": 0.1,
        "delta": 0.05,
        "profile": "desk",
        "sweep": {"axis": "eta", "values": [0.1, 0.2, 0.3, 0.4]},
        "out": str(tmp_path / "sweep"),
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    with open(tmp_path / "sweep" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert [r["value"] for r in rows] == ["0.1", "0.2", "0.3", "0.4"]
    summary = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
    assert summary["fit"] == "loglog-rate"
    assert summary["slope"] == pytest.approx(2.0, abs=0.1)
    assert summary["r_squared"] > 0.999


def test_sweep_two_points_warns_without_slope(tmp_path):
    cfg = {
        "seed": 1,
        "dist": {"family": "gaussian", "d": 5},
        "noise": {"kind": "massart", "eta": 0.2},
        "delta": 0.05,
        "sweep": {"axis": "epsilon", "values": [0.2, 0.1]},
        "out": str(tmp_path / "sweep"),
    }
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    summary = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
    assert "warning" in summary and "slope" not in summary


def test_sweep_bad_axis_exits_2(tmp_path, capsys):
    cfg = dict(TINY, sweep={"axis": "gamma", "values": [1, 2, 3]})
    assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_passes_and_writes_report(tmp_path):
    cfg = {
        "seed": 5,
        "dist": {"family": "gaussian", "d": 4},
        "noise": {"kind": "massart", "eta": 0.2},
        "certify_samples": 20000,
        "verify_samples": 20000,
        "out": str(tmp_path / "verify"),
    }
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads((tmp_path / "verify" / "verify_report.json").read_text())
    assert report["passed"]
    assert report["certify"]["passed"] and report["lemmas"]["passed"]
    assert report["lemmas"]["samples"] == 20000


def test_verify_corrupted_density_floor_fails(tmp_path):
    cfg = {
        "seed": 5,
        # claimed density floor 0.15 clears the L <= U constructor gate but
        # exceeds the true projected density at radius R (about 0.0965)
        "dist": {"family": "gaussian", "d": 4, "params": {"L": 0.15}},
        "noise": {"kind": "massart", "eta": 0.2},
        "certify_samples": 20000,
        "verify_samples": 10000,
        "out": str(tmp_path / "verify"),
    }
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 1
    report = json.loads((tmp_path / "verify" / "verify_report.json").read_text())
    assert not report["passed"]


def test_preview_schedule_prints_payload(tmp_path, capsys):
    assert main(["preview-schedule", "--config", write_config(tmp_path, TINY)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "MNC"
    assert payload["total_label_budget"] == (
        payload["init_label_total"] + payload["main_label_total"]
    )


def test_missing_seed_exits_2(tmp_path, capsys):
    cfg = {k: v for k, v in TINY.items() if k != "seed"}
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert "seed" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_noise_kind_exits_2(tmp_path, capsys):
    cfg = dict(TINY, noise={"kind": "salt_and_pepper", "eta": 0.1})
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert "noise" in capsys.readouterr().err

@pytest.mark.parametrize(
    "change",
    [
        {"noise": {"kind": "massart"}},  # missing eta
        {"multipliers": {"c_Q": 1.0}},
        {"seed": "x"},
        {"seed": -1},
        {"replicates": 0},
    ],
    ids=["missing-eta", "unknown-multiplier", "string-seed", "negative-seed", "zero-replicates"],
)
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, change):
    cfg = dict(TINY, out=str(tmp_path / "out"), **change)
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "out").exists()


def test_numerical_error_is_recorded_and_run_continues(tmp_path, monkeypatch):
    learn = cli.learn

    def failing_first(config):
        if config.seed[1] == 0:
            raise NumericalError("mirror step failed to converge")
        return learn(config)

    monkeypatch.setattr(cli, "learn", failing_first)
    cfg = dict(TINY, replicates=2, out=str(tmp_path / "out"))
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    rows = read_rows(tmp_path / "out")
    assert rows[0]["error"] == "mirror step failed to converge"
    assert rows[1]["error"] == ""
    assert int(rows[1]["label_calls"]) == int(rows[1]["init_labels"]) + int(rows[1]["main_labels"])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failures"] == 1


def test_unknown_dist_param_exits_2(tmp_path):
    cfg = dict(TINY)
    cfg["dist"] = {"family": "gaussian", "d": 3, "params": {"Q": 1.0}}
    assert main(["preview-schedule", "--config", write_config(tmp_path, cfg)]) == 2


def test_seed_override_changes_stream(tmp_path):
    cfg = dict(TINY, replicates=1, out=str(tmp_path / "x"))
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    first = read_rows(tmp_path / "x")[0]
    cfg2 = dict(cfg, out=str(tmp_path / "y"))
    assert main(["run", "--config", write_config(tmp_path, cfg2, "y.json"),
                 "--seed", "405"]) == 0
    second = read_rows(tmp_path / "y")[0]
    assert second["seed"] == "405"
    assert first["final_angle"] != second["final_angle"]
    assert first["label_calls"] == second["label_calls"]  # schedule is seed-free
