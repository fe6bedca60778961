"""Print a sha256 digest of each of the package's outputs at fixed seeds.

Run from the repository root, with no options:

    PYTHONPATH=src python tools/output_digest.py

Each line names one item and the first 16 hex digits of its digest; the last
line digests the list. Running it in two checkouts and diffing the output shows
which outputs a change moved. The items:

- the criterion-3 `learn` at seed (2026, 0): output, trace, truth and ledger;
- `halfband run` at the criterion-3 config, 2 replicates, with --trace:
  results.csv without its wall_time_s column, summary.json and trace.jsonl;
- `halfband sweep` on each of its six axes: sweep.csv and sweep_summary.json;
- `halfband preview-schedule` at the criterion-3 config, and under each regime
  (MNC, TNC, GTNC) at multipliers.c_eps = 3 and dist.params.beta = 1.5;
- `halfband verify` at Gaussian d = 10, seed 62;
- one dense "average" epoch, scalar (`optimize`) and as a one-row block
  (`optimize_block`), on both families and under each noise kind: output,
  ledger and generator state after the epoch. The two lines of a pair match;
- one sparse epoch under each noise kind, digested the same way.

It takes about 6 to 8 s on one core of an x86-64 host.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import halfband as hb
from halfband import cli
from halfband.learner import optimize_block
from halfband.schedules import PROFILES

DESK = PROFILES["desk"]
CRITERION3 = {
    "seed": 2026,
    "dist": {"family": "gaussian", "d": 10},
    "noise": {"kind": "massart", "eta": 0.2},
    "epsilon": 0.1,
    "delta": 0.05,
    "profile": "desk",
}
SWEEPS = {
    "eta": ({"kind": "massart", "eta": 0.2}, None, [0.1, 0.2, 0.3, 0.4]),
    "epsilon": ({"kind": "massart", "eta": 0.2}, None, [0.05, 0.1, 0.2, 0.3]),
    "alpha": ({"kind": "geometric_tsybakov", "B": 1.0, "alpha": 0.8}, None, [0.7, 0.8, 0.9, 1.0]),
    "B": ({"kind": "geometric_tsybakov", "B": 1.0, "alpha": 0.8}, None, [0.5, 1.0, 2.0, 4.0]),
    "d": ({"kind": "massart", "eta": 0.2}, 2, [10, 20, 40, 80]),
    "s": ({"kind": "massart", "eta": 0.2}, 2, [1, 2, 4, 8]),
}
# preview-schedule under each regime, at a c_eps that is not a power of two and beta != 1
GEOMETRIC = {"kind": "geometric_tsybakov", "B": 1.0, "alpha": 0.8}
REGIME_PREVIEWS = {
    "MNC": {"noise": {"kind": "massart", "eta": 0.2}},
    "TNC": {"noise": GEOMETRIC, "regime": "TNC", "tsybakov_A": 2.0},
    "GTNC": {"noise": GEOMETRIC},
}
NOISES = {
    "massart": hb.massart(0.2),
    "massart_band": hb.massart_band(0.2, 0.05),
    "geometric_tsybakov": hb.geometric_tsybakov(1.0, 0.75),
}


def sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def ledger_text(ledger):
    return repr((ledger.ex_calls, ledger.label_calls, ledger.max_feasibility_gap))


def cli_files(command, cfg, names, extra=()):
    """Run one CLI command on cfg in a fresh directory; the bytes of the named files it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(dict(cfg, out=str(Path(tmp) / "out"))))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", str(path), *extra])
        if code != 0:
            raise SystemExit(f"halfband {command} exited with {code}")
        return [(Path(tmp) / "out" / name).read_bytes() for name in names]


def without_wall_time(csv_bytes):
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    drop = rows[0].index("wall_time_s")
    return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows).encode()


def learn_item():
    dist = hb.make_distribution("gaussian", 10)
    result = hb.learn(hb.LearnerConfig(dist=dist, noise=hb.massart(0.2), epsilon=0.1,
                                       delta=0.05, seed=(2026, 0), profile=DESK))
    return sha(result.v.tobytes(), json.dumps(result.trace, sort_keys=True),
               result.truth.w_star.tobytes(), ledger_text(result.ledger))


def epoch_item(dist, noise, seed, scalar, sparse_s=None, T=4000):
    rng = np.random.default_rng(seed)
    truth = hb.make_ground_truth(dist.d, rng, s=sparse_s)
    w1 = truth.w_star + 0.05 * rng.standard_normal(dist.d)
    if sparse_s is not None:
        w1 = hb.hard_threshold(w1, sparse_s)
    ledger = hb.QueryLedger()
    b = min(0.1, dist.R / 2.0)
    args = (1 / 16, b, T, "average", dist, noise, truth)
    if scalar:
        out = hb.optimize(w1, *args, rng, ledger, 0.05, DESK, sparse_s=sparse_s)
    else:
        out = optimize_block(w1[None], *args, [rng], ledger, 0.05, DESK, sparse_s=sparse_s)[0]
    return sha(out.tobytes(), ledger_text(ledger), json.dumps(rng.bit_generator.state))


def items():
    yield "learn criterion-3 seed (2026, 0)", learn_item()
    names = ("results.csv", "summary.json", "trace.jsonl")
    results, summary, trace = cli_files("run", CRITERION3, names, ("--replicates", "2", "--trace"))
    yield "run criterion-3, 2 replicates, --trace", sha(without_wall_time(results), summary, trace)
    for axis, (noise, sparse_s, values) in SWEEPS.items():
        cfg = dict(CRITERION3, noise=noise, sparse_s=sparse_s,
                   sweep={"axis": axis, "values": values})
        if axis == "s":
            cfg["dist"] = {"family": "gaussian", "d": 50}
        yield f"sweep {axis}", sha(*cli_files("sweep", cfg, ("sweep.csv", "sweep_summary.json")))
    yield "preview-schedule criterion-3", sha(
        *cli_files("preview-schedule", CRITERION3, ("preview_schedule.json",)))
    for regime, keys in REGIME_PREVIEWS.items():
        cfg = dict(CRITERION3, **keys, multipliers={"c_eps": 3.0},
                   dist={"family": "gaussian", "d": 10, "params": {"beta": 1.5}})
        yield f"preview-schedule {regime} c_eps=3 beta=1.5", sha(
            *cli_files("preview-schedule", cfg, ("preview_schedule.json",)))
    verify = {"seed": 62, "dist": {"family": "gaussian", "d": 10}}
    yield "verify gaussian d=10 seed 62", sha(*cli_files("verify", verify, ("verify_report.json",)))
    dists = {"gaussian": hb.make_distribution("gaussian", 10),
             "uniform_ball": hb.make_distribution("uniform_ball", 50)}
    for i, (family, dist) in enumerate(dists.items()):
        for j, (kind, noise) in enumerate(NOISES.items()):
            for scalar in (True, False):
                path = "scalar" if scalar else "block"
                yield f"dense epoch {family} {kind} {path}", epoch_item(dist, noise, (31, i, j),
                                                                       scalar)
    sparse = hb.make_distribution("gaussian", 20)
    for j, (kind, noise) in enumerate(NOISES.items()):
        yield f"sparse epoch gaussian d=20 s=2 {kind}", epoch_item(sparse, noise, (32, j), True,
                                                                   sparse_s=2, T=32)


def main():
    lines = []
    for name, digest in items():
        lines.append(f"{name:<52} {digest[:16]}")
        print(lines[-1], flush=True)
    print(f"{'digest of the list':<52} {sha(*lines)[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
