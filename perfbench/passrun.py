"""One benchmark pass in a fresh process.

Set-up (importing hullmetry and loading the suite or generating the clouds)
is timed first, then the pass itself, then the output gate runs outside the
timed region. The report goes to ``<out>/pass.json``.

    python3 perfbench/passrun.py --workload bundled --seed 20240501 \
        --out .perfbench_out/p0 [--trace] [--reference results.json]
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _rusage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux; children report their largest member
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hullmetry

    if not Path(hullmetry.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hullmetry imported from {hullmetry.__file__}, not from {src}")
    return hullmetry


def _run_cloud_op(hm, item):
    """One single-operation call, as the CLI would make it; returns its outputs."""
    op, pts = item["op"], item["points"]
    if op == "hull":
        hull = hm.geometry.quickhull(pts)
        return {"vertices": hull.vertices, "volume": hm.geometry.volume_det(hull.boundary)}
    if op == "meb":
        ball = hm.geometry.min_enclosing_ball(pts)
        return {"center": ball.center, "radius": ball.radius}
    if op == "cover":
        rep = hm.covering.greedy_cover(pts, item["epsilon"])
        return {"centers": rep.centers, "n_greedy": rep.n_greedy, "n_packing": rep.n_packing}
    if op == "hull_cover_ratio":
        cloud = hm.geometry.PointCloud(pts)
        return {"cert": hm.covering.check_hull_cover_ratio(cloud, item["epsilon"])}
    if op == "entropy":
        return {"value": hm.chaining.entropy_integral(pts, item["alpha"]).value}
    if op == "sup_mc":
        est = hm.chaining.gaussian_sup_mc(pts, item["trials"], item["mc_seed"])
        return {"mean": est.mean, "std_error": est.std_error}
    raise ValueError(f"unknown operation {op!r}")


def _gate_cloud_op(gate, item, out) -> list:
    op, pts = item["op"], item["points"]
    if op == "hull":
        return gate.check_hull(pts, out["vertices"], out["volume"])
    if op == "meb":
        return gate.check_ball(pts, out["center"], out["radius"])
    if op == "cover":
        return gate.check_cover(pts, out["centers"], item["epsilon"], out["n_greedy"])
    if op == "hull_cover_ratio":
        return gate.check_hull_cover_ratio(len(pts), pts.shape[1], out["cert"])
    if op == "entropy":
        return gate.check_entropy(out["value"])
    return gate.check_sup_mc(pts, out["mean"], out["std_error"])


def _suite_checks(suite: Path) -> list:
    doc = json.loads(suite.read_text())
    return [(s["id"], c) for s in doc["scenarios"] for c in s["checks"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", help="results.json of an earlier run to compare with")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    hm = _import_package()
    import workloads

    if args.workload == "cloud_ops":
        inputs = workloads.cloud_inputs(args.seed)
    else:
        suite = ROOT / workloads.SUITE
        hm.harness.load_suite(suite)
        jobs = workloads.JOBS[args.workload]
    setup_s = time.perf_counter() - t0

    import gate
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    outputs, errors = {}, {}
    cpu0, _ = _rusage()
    if tracer is not None:
        tracer.install()
    t1 = time.perf_counter()
    if args.workload == "cloud_ops":
        for item in inputs:
            try:
                outputs[item["name"]] = _run_cloud_op(hm, item)
            except Exception as exc:  # a raising operation is a failed item
                errors[item["name"]] = f"raised {type(exc).__name__}: {exc}"
    else:
        try:
            hm.harness.run_suite(suite, out / "suite", seed=args.seed, jobs=jobs)
        except Exception as exc:
            errors["run_suite"] = f"raised {type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()
    cpu1, peak_rss_mb = _rusage()

    report = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu1 - cpu0,
              "peak_rss_mb": peak_rss_mb}
    if args.workload == "cloud_ops":
        items = {}
        for item in inputs:
            name = item["name"]
            items[name] = [errors[name]] if name in errors else _gate_cloud_op(
                gate, item, outputs[name])
    else:
        expected = _suite_checks(suite)
        results = out / "suite" / "results.json"
        if results.exists():
            reference = Path(args.reference).read_text() if args.reference else None
            problems = gate.check_suite(results.read_text(), args.seed, expected, reference)
            items = {f"{s}/{c}": p for (s, c), p in problems.items()}
        else:
            items = {f"{s}/{c}": [errors.get("run_suite", "no results.json")] for s, c in expected}
        rows = (out / "suite" / "results.csv").read_text().splitlines()[1:] if results.exists() else []
        runtimes = [float(row.rsplit(",", 1)[1]) / 1000.0 for row in rows]
        report["harness.pool_busy_ratio"] = sum(runtimes) / (jobs * wall_s)
        report["harness.check_max_s"] = max(runtimes, default=0.0)
    report["items"] = items
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.write(out / "spans.jsonl")
    (out / "pass.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
