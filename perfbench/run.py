"""hullmetry benchmark: one workload, measured for a fixed time, outputs gated.

    python3 perfbench/run.py --workload bundled --seed 20240501 --seconds 24 --trace 0

Every pass runs in a fresh process (``passrun.py``) so that set-up, CPU time
and peak memory are measured per pass. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics (medians over
the passes); with ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics instead. Exit status is 0 when a result is
printed, whether or not every output passed the gate.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_NAMES, LAYERS, REPEAT_KEYS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
DEADLINE_S = 170.0  # the whole run, set-up included

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Public functions reported one by one. Pure scalar formulas (cardinality_limit,
# l_constant, hull_profile, ratio_bound, volume_ratio_general_bound,
# measured_c2) are left out; their time still counts in their layer.
FUNCTIONS = (
    "geometry.hull_contains", "geometry.load_body", "geometry.load_cloud",
    "geometry.min_enclosing_ball", "geometry.polytope_from_facets", "geometry.quickhull",
    "geometry.triangulate_boundary", "geometry.triangulate_facets",
    "geometry.unit_ball_volume", "geometry.volume_det", "geometry.volume_projected",
    "geometry.volume_ratio_poly",
    "sampling.affine_basis", "sampling.grid_points", "sampling.grid_spacing",
    "sampling.hausdorff_distance", "sampling.membership", "sampling.sample_hull",
    "sampling.sample_polytope",
    "minkowski.body_beta", "minkowski.check_reverse_bm", "minkowski.convexification_gap",
    "minkowski.empirical_general_ratio", "minkowski.minkowski_sum", "minkowski.scale_body",
    "covering.check_hull_cover_ratio", "covering.greedy_cover", "covering.inradius",
    "covering.packing_number", "covering.volume_cover_bounds",
    "chaining.certify_hull_gamma", "chaining.certify_mm_two_sided",
    "chaining.entropy_integral", "chaining.gamma_greedy", "chaining.gaussian_sup_mc",
    "profiles.integral_exists", "profiles.l_existence_report",
    "harness.derive_seed", "harness.load_suite", "harness.run_scenario", "harness.run_suite",
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count",
                      f"{layer}.errors": "count"})
    for fn in FUNCTIONS:
        units.update({f"{fn}.self_s": "s", f"{fn}.calls": "count"})
    units.update({name: "flop" if name.endswith(".flops") else "count" for name in COUNT_NAMES})
    units["covering.packing_number.unused_ratio"] = "ratio"
    units.update({f"{key}.repeat_ratio": "ratio" for key in REPEAT_KEYS})
    units.update({"harness.pool_busy_ratio": "ratio", "harness.check_max_s": "s",
                  "trace_overhead_ratio": "ratio"})
    return units


class Runner:
    """Starts passes in fresh processes and collects their reports."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload, self.seed, self.out = workload, seed, out
        self.deadline = time.monotonic() + DEADLINE_S
        self.reports: list[dict] = []
        self.last_s = 0.0

    def time_left_for(self, passes: int) -> bool:
        return time.monotonic() + 1.5 * passes * self.last_s < self.deadline

    def run_pass(self, trace=False, workload=None, reference=None) -> dict:
        out = self.out / f"pass{len(self.reports)}"
        cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload or self.workload,
               "--seed", str(self.seed), "--out", str(out)]
        if trace:
            cmd.append("--trace")
        if reference is not None:
            cmd += ["--reference", str(reference)]
        started = time.monotonic()
        # own session, so that a stuck pass and its pool workers die together
        proc = subprocess.Popen(cmd, start_new_session=True, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(self.deadline - started, 1.0))
        except subprocess.TimeoutExpired:
            raise RuntimeError("a pass ran past the benchmark's deadline") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            raise RuntimeError(f"a pass exited with status {code}")
        self.last_s = time.monotonic() - started
        report = json.loads((out / "pass.json").read_text())
        report["dir"] = out
        self.reports.append(report)
        return report


def _results(report) -> Path:
    return report["dir"] / "suite" / "results.json"


def measure(runner: Runner, seconds: float, trace: bool):
    """Run the passes; returns (untraced passes, traced passes)."""
    reference = None
    if runner.workload == "bundled_jobs2":
        # serial run of the same suite and seed: outputs must be byte-identical
        reference = _results(runner.run_pass(workload="bundled"))
    plain, traced = [], []
    start = time.monotonic()
    while True:
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if enough and (time.monotonic() - start >= seconds
                       or not runner.time_left_for(2 if trace else 1)):
            break
        plain.append(runner.run_pass(reference=reference))
        if reference is None and runner.workload == "bundled":
            reference = _results(plain[0])
        if trace:
            traced.append(runner.run_pass(trace=True, reference=reference))
    return plain, traced


def _median(reports, key) -> float:
    return statistics.median(r[key] for r in reports)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/hullmetry/__init__.py", "suites/bundled_suite.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a hullmetry checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, out)
    try:
        plain, traced = measure(runner, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    for report in runner.reports:
        for item, problems in sorted(report["items"].items()):
            attempted += 1
            if problems:
                failed += 1
                print(f"FAIL {item}: {'; '.join(problems)}")

    if args.trace:
        layers = [r["layers"] for r in traced]
        metrics = {}
        for name, unit in per_layer_units().items():
            if name.startswith("harness.") and name in plain[0]:
                value = _median(plain, name)
            elif name == "trace_overhead_ratio":
                value = _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0
            else:
                value = statistics.median(layer.get(name, 0) for layer in layers)
            metrics[name] = {"value": value, "unit": unit}
        spans = out.parent / f"spans-{args.workload}-{args.seed}.jsonl"
        shutil.copyfile(traced[-1]["dir"] / "spans.jsonl", spans)
        print(f"spans of the last traced pass: {spans.relative_to(ROOT)}")
    else:
        metrics = {}
        for name, unit in END_TO_END.items():
            # every fresh process sets up, the serial reference pass included
            source = runner.reports if name == "setup_s" else plain
            metrics[name] = {"value": _median(source, name), "unit": unit}
        for name, m in metrics.items():
            source = runner.reports if name == "setup_s" else plain
            samples = " ".join(f"{r[name]:.3f}" for r in source)
            print(f"{name} {m['value']:.4f} {m['unit']} (median of {len(source)}: {samples})")
        print(f"fail_ratio {failed / attempted:.4f} ratio ({failed}/{attempted} items)")
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced passes "
          f"of {len(runner.reports)} in all, seed {args.seed}")
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
