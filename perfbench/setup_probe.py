"""Set-up time of one workload in a fresh process.

Times `import halfband` and the workload's prepare() (config parsing and
schedule_for), and prints one JSON line: the measured seconds, and setup_s
in reference seconds (hostspeed.py). run.py starts this script a few times
per run and reports the median.

    python3 perfbench/setup_probe.py --workload NAME --seed N --workdir DIR
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402  (pure Python)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    with hostspeed.HostSpeed() as speed:
        import workloads  # imports numpy and halfband

        known = workloads.WORKLOADS | workloads.UNGATED
        known[args.workload]().prepare(args.seed, Path(args.workdir))
    print(json.dumps({"wall_s": speed.busy_s, "setup_s": speed.ref_s}))


if __name__ == "__main__":
    main()
