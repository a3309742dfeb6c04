#!/usr/bin/env python3
"""Perf-regression guard for the committed benchmark baselines.

Compares freshly produced ``--json`` outputs (bench_batch_sweep and/or
bench_db_query) against the committed baseline files and fails when
any matched run is slower than baseline by more than the tolerance.

    check_perf.py CURRENT.json BASELINE.json [CURRENT2.json BASELINE2.json ...]
                  [--tolerance 0.25] [--require NAME:RATIO ...]

Any number of (current, baseline) pairs may be given; CI guards both
BENCH_sweep.json and BENCH_db.json in one invocation. Matching is
generic over both benchmark formats: runs are keyed by their
``threads`` (sweep) or ``name`` (db query) field, and the throughput
metric is ``tasks_per_s`` or ``ops_per_s``. The baseline file may nest
its runs under ``optimized`` (BENCH_sweep.json) or ``baseline``
(BENCH_db.json). A run present only in the current output (e.g. a
benchmark added after the baseline was recorded) is reported but not
compared. A baseline run missing from the current output fails the
check: a benchmark that is deleted takes its baseline row with it, so
a silently vanished row cannot pass for a kept one.

Only slowdowns fail the check; speedups are reported but fine. The
default tolerance is deliberately wide (25%) because shared CI
runners jitter — the guard exists to catch real regressions (2x
slower hot path), not scheduling noise.

``--require NAME:RATIO`` (repeatable) additionally asserts a speedup
floor: the current run NAME must be at least RATIO times the figure
recorded for it in the baseline file's ``reference`` section — a
frozen pre-optimization measurement that is *not* refreshed when the
rolling baseline is re-recorded (falling back to the baseline runs
when no reference section exists). This pins "the vectorized scan
stays >= 10x the pre-executor loop" as a CI invariant rather than a
one-off claim in a PR description.

Uses only the Python standard library.
"""

import argparse
import json
import sys


def load_runs(doc):
    """Extract the run list from either a fresh output or a baseline."""
    for section in ("optimized", "baseline"):
        if section in doc and isinstance(doc[section], dict):
            runs = doc[section].get("runs")
            if runs:
                return runs
    runs = doc.get("runs")
    if not runs:
        raise SystemExit("error: no runs[] found in benchmark JSON")
    return runs


def run_key(run):
    if "threads" in run:
        return f"threads={run['threads']}"
    if "name" in run:
        return run["name"]
    raise SystemExit(f"error: run without 'threads' or 'name': {run}")


def run_metric(run):
    for field in ("tasks_per_s", "ops_per_s"):
        if field in run:
            return field, float(run[field])
    raise SystemExit(f"error: run without a throughput metric: {run}")


def reference_runs(doc):
    """The frozen pre-optimization runs, if the baseline carries any."""
    section = doc.get("reference")
    if isinstance(section, dict) and section.get("runs"):
        return {run_key(r): r for r in section["runs"]}
    return {}


def check_requires(current, baseline_doc, requires, failures):
    """Assert --require speedup floors against the reference runs."""
    reference = reference_runs(baseline_doc)
    for name, floor in requires.items():
        ref_run = reference.get(name)
        source = "reference"
        if ref_run is None:
            # No frozen reference recorded: fall back to the rolling
            # baseline so the floor still binds to something.
            source = "baseline"
            ref_run = {
                run_key(r): r for r in load_runs(baseline_doc)
            }.get(name)
        if ref_run is None or name not in current:
            continue  # not this pair's benchmark file
        _, ref_value = run_metric(ref_run)
        _, cur_value = run_metric(current[name])
        if ref_value <= 0:
            continue
        ratio = cur_value / ref_value
        ok = ratio >= floor
        requires_seen.add(name)
        marker = "" if ok else "  << BELOW FLOOR"
        print(
            f"require {name:<16} {ref_value:>12.1f} ({source})"
            f" {cur_value:>12.1f} {ratio:>7.2f}x (floor "
            f"{floor:.1f}x){marker}"
        )
        if not ok:
            failures.append((f"require:{name}", ratio))


requires_seen = set()


def compare_pair(current_path, baseline_path, tolerance, requires,
                 failures, missing):
    """Compare one (current, baseline) file pair; returns runs compared."""
    with open(current_path) as f:
        current_doc = json.load(f)
    with open(baseline_path) as f:
        baseline_doc = json.load(f)

    current = {run_key(r): r for r in load_runs(current_doc)}
    baseline = {run_key(r): r for r in load_runs(baseline_doc)}

    compared = 0
    print(f"-- {current_path} vs {baseline_path}")
    print(f"{'run':<24} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for key, base_run in baseline.items():
        if key not in current:
            print(f"{key:<24} {'(missing in current output)':>34}"
                  "  << MISSING")
            missing.append(f"{current_path}:{key}")
            continue
        metric, base_value = run_metric(base_run)
        _, cur_value = run_metric(current[key])
        if base_value <= 0:
            continue
        ratio = cur_value / base_value
        compared += 1
        marker = ""
        if ratio < 1.0 - tolerance:
            marker = "  << REGRESSION"
            failures.append((key, ratio))
        print(
            f"{key:<24} {base_value:>12.1f} {cur_value:>12.1f}"
            f" {ratio:>7.2f}x{marker}"
        )
    for key in current:
        if key not in baseline:
            print(f"{key:<24} {'(new run, no baseline yet)':>34}")
    check_requires(current, baseline_doc, requires, failures)
    return compared


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "files",
        nargs="+",
        metavar="CURRENT BASELINE",
        help="alternating fresh --json outputs and committed baselines",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="maximum allowed fractional slowdown (default 0.25)",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME:RATIO",
        help="speedup floor vs the baseline file's reference section "
        "(e.g. port_mask_scan:10); repeatable",
    )
    args = parser.parse_args()
    if len(args.files) % 2 != 0:
        raise SystemExit(
            "error: expected CURRENT BASELINE pairs, got an odd number "
            "of files"
        )
    requires = {}
    for spec in args.require:
        name, sep, ratio = spec.rpartition(":")
        if not sep or not name:
            raise SystemExit(
                f"error: --require expects NAME:RATIO, got {spec!r}"
            )
        try:
            requires[name] = float(ratio)
        except ValueError:
            raise SystemExit(
                f"error: --require ratio must be a number, got {spec!r}"
            )

    failures = []
    missing = []
    compared = 0
    for i in range(0, len(args.files), 2):
        compared += compare_pair(
            args.files[i], args.files[i + 1], args.tolerance,
            requires, failures, missing
        )
        print()

    for name in requires:
        if name not in requires_seen:
            raise SystemExit(
                f"error: --require {name}: no such run in any "
                "current/reference pair"
            )

    if compared == 0:
        raise SystemExit("error: no comparable runs between the files")
    status = 0
    if missing:
        print(
            f"FAIL: {len(missing)} baseline run(s) missing from the "
            f"current output: {', '.join(missing)}",
            file=sys.stderr,
        )
        status = 1
    if failures:
        worst = min(failures, key=lambda f: f[1])
        print(
            f"FAIL: {len(failures)} run(s) slower than baseline by "
            f">{args.tolerance:.0%} (worst: {worst[0]} at "
            f"{worst[1]:.2f}x)",
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print(f"OK: {compared} run(s) within {args.tolerance:.0%} of "
              "baseline")
    return status


if __name__ == "__main__":
    sys.exit(main())
