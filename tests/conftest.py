"""Shared fixtures. The end-to-end batch is expensive, so it runs once per session."""

import time

import numpy as np
import pytest

import halfband as hb
from halfband.schedules import PROFILES


@pytest.fixture(scope="session")
def criterion3_runs():
    """20 seeded end-to-end runs: Gaussian d=10, constant flip rate 0.2, eps=0.1."""
    dist = hb.make_distribution("gaussian", 10)
    noise = hb.massart(0.2)
    runs = []
    start = time.perf_counter()
    for i in range(20):
        config = hb.LearnerConfig(
            dist=dist,
            noise=noise,
            epsilon=0.1,
            delta=0.05,
            seed=(2026, i),
            profile=PROFILES["desk"],
        )
        result = hb.learn(config)
        excess = hb.excess_error(result.v, dist, noise, result.truth, method="exact")
        runs.append(
            {
                "result": result,
                "excess": float(excess),
                "angles": [entry["angle"] for entry in result.trace],
                "final_angle": float(hb.angle(result.v, result.truth.w_star)),
            }
        )
    return {"runs": runs, "elapsed": time.perf_counter() - start}
