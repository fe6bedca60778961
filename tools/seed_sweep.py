"""Run two sparse-solver property tests' bodies over a fixed range of seeds and print the failures.

Run from the repository root:

    PYTHONPATH=src python tools/seed_sweep.py

For each dimension d, each of seeds 0 .. N-1 and each (euclidean, shifted)
pair, it draws the step that tests/test_sparse.py's
`test_exact_step_raises_iff_empty_else_kkt_point` draws at those parameters
and runs two bodies on it:

- `kkt`: that test's body (`check_exact_step_raises_iff_empty_else_kkt_point`):
  an empty set raises `EmptyConstraintError` when built, else the projection
  and the mirror step are feasible KKT points;
- `guessed`: the body of `test_guessed_step_matches_cold_step_on_criterion8_instances`
  (`check_guessed_step_matches_cold_step`) on the same draw's nonempty set,
  with v1 = u1 and v2 = u_t: seeded with half and twice its cold l2
  multiplier, the step lands within 1e-12 of the cold step, with its active
  set, feasible and at a KKT point.

Draws whose l1 radius lies within 1e-9 of the l2 ball's l1 distance are
skipped, as the test skips them. A RuntimeWarning is an error, as in the
suite. Each failure prints one line (body, d, euclidean, shifted, seed and the
error); a table follows of the draws run per (d, euclidean, shifted), of
those whose set K is nonempty (the others must raise EmptyConstraintError)
and of the failures. The exit code is 1 if anything failed. It sweeps
seeds 0-9,999 at d = 3 and 4 and seeds 0-999 at d = 8, 20 and 50, in about
17 minutes on one core of an x86-64 host; sweep(d, seeds) runs one other
range. The tests' own settings are not changed.
"""

import itertools
import sys
import traceback
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_sparse as ts  # noqa: E402

from halfband.sparse import SparseConstraint  # noqa: E402

PLAN = [((3, 4), 10_000), ((8, 20, 50), 1_000)]  # (dimensions, seeds 0..N-1)


def _failure(exc):
    """One line naming the error, where it was raised and its message (else that line's code)."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    text = str(exc).splitlines()[0] if str(exc) else where.line
    return f"{type(exc).__name__} at {Path(where.filename).name}:{where.lineno}: {text}"


def sweep(d, seeds, out=sys.stdout):
    """Run both bodies at d over seeds; {(euclidean, shifted): (draws, nonempty, failures)}."""
    table = {}
    for euclidean, shifted in itertools.product((False, True), repeat=2):
        draws = nonempty = failures = 0
        for seed in seeds:
            results = []
            try:
                results.append(ts.check_exact_step_raises_iff_empty_else_kkt_point(
                    seed, d, euclidean, shifted))
            except Exception as exc:  # noqa: BLE001 - every error is a finding
                results.append(exc)
            (center2, radius2, center1, radius1, u1, u_t, g, alpha, p), distance = ts.kkt_draw(
                seed, d, euclidean, shifted)
            if distance < radius1 and results[0] is not False:
                try:
                    constraint = SparseConstraint(center2, radius2, center1, radius1)
                    ts.check_guessed_step_matches_cold_step(constraint, u1, u_t, g, alpha, p)
                    results.append(True)
                except Exception as exc:  # noqa: BLE001
                    results.append(exc)
            if results[0] is False:
                continue
            draws += 1
            nonempty += distance < radius1
            for body, result in zip(("kkt", "guessed"), results):
                if isinstance(result, Exception):
                    failures += 1
                    print(f"FAIL {body} d={d} euclidean={euclidean} shifted={shifted} "
                          f"seed={seed}: {_failure(result)}", file=out, flush=True)
        table[euclidean, shifted] = (draws, nonempty, failures)
    return table


def main():
    warnings.simplefilter("error", RuntimeWarning)
    total = 0
    print(f"{'d':>3} {'euclidean':>9} {'shifted':>7} {'seeds':>6} {'draws':>6} {'nonempty':>8} "
          f"{'failures':>8}")
    for dims, n in PLAN:
        for d in dims:
            for (euclidean, shifted), (draws, nonempty, failures) in sweep(d, range(n)).items():
                total += failures
                print(f"{d:>3} {euclidean!s:>9} {shifted!s:>7} {n:>6} {draws:>6} {nonempty:>8} "
                      f"{failures:>8}", flush=True)
    print(f"failures: {total}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
