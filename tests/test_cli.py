"""Command-line driver: runs, sweeps, verification, previews, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from halfband import cli
from halfband.cli import CSV_COLUMNS, main
from halfband.distributions import FAMILIES
from halfband.errors import InvalidInputError, NumericalError
from halfband.oracles import NOISE_KINDS
from halfband.schedules import PROFILES, REGIMES

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
    # a short grid, and a grid whose points repeat one value, have no slope to fit
    for axis, values in (("epsilon", [0.2, 0.1]), ("eta", [0.1, 0.1, 0.1])):
        out = tmp_path / axis
        cfg = {
            "seed": 1,
            "dist": {"family": "gaussian", "d": 5},
            "noise": {"kind": "massart", "eta": 0.2},
            "delta": 0.05,
            "sweep": {"axis": axis, "values": values},
            "out": str(out),
        }
        assert main(["sweep", "--config", write_config(tmp_path, cfg, f"{axis}.json")]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["points"] == len(values)
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


def test_verify_bound_arithmetic_failure_exits_2_with_one_line(tmp_path, capsys):
    # at B = 1e300 the noise-tail bound's (t / B)^3 underflows to 0 and its log divides by it
    cfg = dict(TINY, noise={"kind": "geometric_tsybakov", "B": 1e300, "alpha": 0.75},
               certify_samples=500, verify_samples=500, out=str(tmp_path / "verify"))
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: lemma-suite bounds fail")


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
    path.write_bytes(b"\xff\xfe{}")  # not UTF-8
    assert main(["run", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_noise_kind_exits_2(tmp_path, capsys):
    cfg = dict(TINY, noise={"kind": "salt_and_pepper", "eta": 0.1})
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert "noise" in capsys.readouterr().err

SWEEP = {"axis": "eta", "values": [0.1, 0.2, 0.3]}
NO_CONFIG = None  # a change that leaves the --config path without a file


@pytest.mark.parametrize(
    "command, change",
    [
        ("run", {"noise": {"kind": "massart"}}),  # missing eta
        ("run", {"multipliers": {"c_Q": 1.0}}),
        ("run", {"seed": "x"}),
        ("run", {"seed": -1}),
        ("run", {"replicates": 0}),
        ("preview-schedule", {"noise": {"kind": "massart", "eta": "x"}}),
        ("preview-schedule", {"dist": {"family": "gaussian", "d": "ten"}}),
        ("preview-schedule", {"dist": "gaussian"}),
        ("preview-schedule", {"noise": {"kind": "massart", "eta": None}}),
        ("preview-schedule", {"sparse_s": "x"}),
        ("preview-schedule", {"out": 5}),
        ("preview-schedule", {"multipliers": {"c_T": 1e308}}),
        ("preview-schedule", {"noise": {"kind": "geometric_tsybakov", "B": 1.0, "alpha": 0.4},
                              "regime": "TNC"}),
        ("sweep", {"sweep": "eta"}),
        ("sweep", {"sweep": {"axis": "eta", "values": 5}}),
        ("preview-schedule", {"epsilion": 0.01}),
        ("preview-schedule", {"regime": "XYZ"}),
        ("preview-schedule", {"dist": {"d": 5.5}}),
        ("preview-schedule", {"multipliers": {"c_T": -1}}),
        # T_j near 1e37: the learner draws step indices as int64
        ("preview-schedule", {"noise": {"kind": "massart", "eta": 0.49999999999999994}}),
        ("preview-schedule", {"sparse_s": 4}),  # TINY has d = 3
        ("sweep", {"sweep": {"axis": "s", "values": [1, 2, 4]}}),
        # sparse points fit int64, but their dense comparison schedules do not
        ("sweep", {"dist": {"family": "gaussian", "d": 2**53}, "epsilon": 0.001, "sparse_s": 1,
                   "noise": {"kind": "massart", "eta": 0.4999},
                   "sweep": {"axis": "s", "values": [1, 2, 3]}}),
        ("run", NO_CONFIG),
        ("run", {"out": "config.json"}),  # relative to tmp_path: the config file itself
        ("verify", {"verify_samples": 1}),  # one sample has no standard error
        # U * beta overflows: a traceback from math.log(2 / (b U beta)) in the lemma suite
        ("verify", {"dist": {"family": "gaussian", "d": 3,
                             "params": {"L": 0.001, "R": 1, "U": 1e300, "beta": 1e10}}}),
    ],
    ids=[
        "missing-eta",
        "unknown-multiplier",
        "string-seed",
        "negative-seed",
        "zero-replicates",
        "string-eta",
        "string-d",
        "string-dist",
        "null-eta",
        "string-sparse-s",
        "number-out",
        "overflowing-c_T",
        "tnc-alpha-0.4",
        "string-sweep",
        "number-sweep-values",
        "unknown-key",
        "unknown-regime",
        "fractional-d",
        "negative-c_T",
        "int64-overflowing-T",
        "sparse-s-above-d",
        "sweep-s-above-d",
        "sweep-dense-twin-overflows",
        "missing-config-file",
        "out-is-a-file",
        "one-verify-sample",
        "overflowing-constants",
    ],
)
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch, command, change):
    monkeypatch.chdir(tmp_path)
    cfg = {**TINY, "out": str(tmp_path / "out"), "sweep": SWEEP, **(change or {})}
    path = write_config(tmp_path, cfg)
    if change is NO_CONFIG:
        path = str(tmp_path / "missing.json")
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    if cfg.get("regime") == "XYZ":  # exited 2 before, but blamed the GTNC noise check
        assert "regime" in err[0]
    assert not (tmp_path / "out").exists()


def test_feasibility_violation_exits_3(tmp_path, capsys, monkeypatch):
    learn = cli.learn
    monkeypatch.setattr(
        cli, "learn", lambda config: dataclasses.replace(learn(config), max_feasibility_gap=1e-6)
    )
    cfg = dict(TINY, out=str(tmp_path / "out"))
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "feasibility" in err[0]


@pytest.mark.parametrize("command,target", [("run", "learn"), ("verify", "verify_lemma_suite")])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command, target):
    # stands in for a dist.d that fits int64 but not memory; nothing large is allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, target, out_of_memory)
    cfg = dict(TINY, certify_samples=2000, out=str(tmp_path / "out"))
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "memory" in err[0] and "8.00 TiB" in err[0]


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


def test_sparse_run_with_empty_constraint_set_is_an_error_row(tmp_path):
    # replicate 0, seed (7, 0): a warm-start row of epoch j=1 has an empty constraint set
    cfg = {
        "seed": 7,
        "dist": {"family": "gaussian", "d": 10},
        "noise": {"kind": "massart", "eta": 0.2},
        "epsilon": 0.3,
        "delta": 0.05,
        "sparse_s": 2,
        "multipliers": {"c_T": 0.002, "c_S": 4},
        "out": str(tmp_path / "out"),
    }
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    rows = read_rows(tmp_path / "out")
    assert len(rows) == 1
    assert rows[0]["error"].startswith("empty constraint set: the l2 ball lies at l1 distance")
    assert rows[0]["s"] == "2" and rows[0]["label_calls"] == ""
    assert float(rows[0]["wall_time_s"]) < 30.0  # seconds; the failing step used to take minutes
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failures"] == 1


@pytest.mark.parametrize(
    "dist, c_b",
    [("uniform_ball", 1e-16), ("gaussian", 1e-17)],
    ids=["ball-counts-past-int64", "gaussian-probability-zero"],
)
def test_band_too_thin_is_an_error_row(tmp_path, dist, c_b):
    # the uniform-ball band's attempt counts overflow int64; the Gaussian's p rounds to 0
    cfg = {
        "seed": 1,
        "dist": {"family": dist, "d": 5},
        "noise": {"kind": "massart", "eta": 0.2},
        "epsilon": 0.3,
        "multipliers": {"c_T": 0.002, "c_S": 4, "c_b": c_b},
        "replicates": 2,
        "out": str(tmp_path / "out"),
    }
    assert main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    rows = read_rows(tmp_path / "out")
    assert len(rows) == 2
    for row in rows:
        assert "too thin to sample" in row["error"]
        assert row["ex_calls"] == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failures"] == 2


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


# Fuzzed configs start from a valid sweep config and edit up to six keys,
# top-level, one section deep or inside dist.params, so most draws get past
# the first check. Strings avoid "/" and "." because "out" names a directory.
FUZZ_BASES = [
    {
        "seed": 1,
        "dist": {"family": "gaussian", "d": 10},
        "noise": {"kind": "massart", "eta": 0.2},
        "sweep": {"axis": "eta", "values": [0.1, 0.2, 0.3]},
    },
    {
        "seed": 2,
        "dist": {"family": "uniform_ball", "d": 6, "params": {"L": 0.05}},
        "noise": {"kind": "geometric_tsybakov", "B": 1.0, "alpha": 0.75},
        "regime": "TNC",
        "sweep": {"axis": "alpha", "values": [0.6, 0.8, 1.0]},
    },
    {
        "seed": 3,
        "dist": {"family": "gaussian", "d": 50},
        "noise": {"kind": "massart_band", "eta": 0.1, "tau": 0.5},
        "sparse_s": 5,
        "sweep": {"axis": "d", "values": [50, 100, 200]},
    },
]
SUBKEYS = ["family", "d", "params", "kind", "eta", "tau", "B", "alpha", "c_b", "c_T",
           "c_alpha", "c_eps", "c_S", "axis", "values", "typo"]
NAMES = sorted({*cli.CONFIG_KEYS, *NOISE_KINDS, *cli.SWEEP_AXES, *FAMILIES, *REGIMES,
                *PROFILES, *SUBKEYS})
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(0, 300),
    st.floats(),
    st.floats(0.0, 1.0),
    st.sampled_from(NAMES),
    st.text("abXY09", max_size=3),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(NAMES), inner, max_size=3)
    ),
    max_leaves=6,
)
PATHS = st.one_of(
    st.tuples(st.sampled_from([*cli.CONFIG_KEYS, "epsilion"])),
    st.tuples(st.sampled_from(["dist", "noise", "multipliers", "sweep"]),
              st.sampled_from(SUBKEYS)),
    st.tuples(st.just("dist"), st.just("params"), st.sampled_from(["L", "R", "U", "beta", "Q"])),
)
DELETE = object()


def _apply(cfg, path, value):
    *parents, key = path
    for part in parents:
        cfg = cfg.get(part)
        if not isinstance(cfg, dict):
            return
    if value is DELETE:
        cfg.pop(key, None)
    else:
        cfg[key] = value


# Sizes applied after the fuzz edits of a run or verify config, so that a valid one
# finishes in well under a second: a numeric value above its cap becomes the cap, as
# does an absent one where the default is large; a value of another type, or a
# smaller one, is left to the config checks.
RUN_CAPS = [  # (path, cap, set when absent)
    (("multipliers", "c_T"), 1e-10, True),
    (("multipliers", "c_S"), 1e-3, True),
    (("excess_mc_samples",), 500, True),
    (("certify_samples",), 500, True),
    (("verify_samples",), 500, True),
    (("replicates",), 1, False),
    (("dist", "d"), 10, False),
]
RUN_LABEL_CAP = 10**4  # labels per fuzzed run, over all replicates


def _cap(cfg, path, cap, fill):
    *parents, key = path
    for part in parents:
        cfg = cfg.setdefault(part, {}) if fill else cfg.get(part)
        if not isinstance(cfg, dict):
            return
    value = cfg.get(key)
    if (fill and value is None) or (type(value) in (int, float) and value > cap):
        cfg[key] = cap


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["preview-schedule", "sweep", "run", "verify"]),
    base=st.sampled_from(FUZZ_BASES),
    edits=st.lists(st.tuples(PATHS, st.one_of(st.just(DELETE), VALUES)), max_size=6),
)
def test_no_config_produces_a_traceback(tmp_path, monkeypatch, command, base, edits):
    monkeypatch.chdir(tmp_path)
    cfg = json.loads(json.dumps(base))
    for path, value in edits:
        _apply(cfg, path, value)
    if command in ("run", "verify"):
        for path, cap, fill in RUN_CAPS:
            _cap(cfg, path, cap, fill)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    if command == "run":  # a valid schedule can still ask for days of labels
        try:
            spec = cli.parse_spec(cli.load_config(path, {}), command)
        except InvalidInputError:
            spec = None
        assume(spec is None or spec.replicates * spec.schedule.total_label_budget()
               <= RUN_LABEL_CAP)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path)])
    # a run whose learner fails is an error row, exit 0; a failed verify check exits 1
    assert code in ((0, 1, 2) if command == "verify" else (0, 2))
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
