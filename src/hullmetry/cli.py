"""Command-line front end.

`hullmetry run <suite.json> --out <dir>` executes a certification suite;
the other subcommands run one operation and print a JSON record to stdout.
Exit codes: 0 all certifications hold, 1 some failed, 2 usage error or malformed
input (suite, input file or HULLMETRY_SEED).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import INPUT_ERRORS
from .geometry import load_body, load_cloud, volume_det, volume_projected
from .minkowski import BodyApprox, as_body, minkowski_average, reverse_bm_sweep
from .covering import exact_cover_small, greedy_cover
from .chaining import entropy_integral, gamma_exact_small, gamma_greedy, gaussian_sup_mc
from .profiles import EntropyProfile, l_existence_report
from .harness import run_suite


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _seed_default(value):
    if value is not None:
        return int(value)
    env = os.environ.get("HULLMETRY_SEED")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"HULLMETRY_SEED must be an integer, got {env!r}") from None


def cmd_run(args) -> int:
    return run_suite(args.suite, args.out, seed=_seed_default(args.seed), jobs=args.jobs)


def _body_or_cloud(args) -> BodyApprox:
    return as_body(load_cloud(args.cloud) if args.cloud else load_body(args.body))


def cmd_hull(args) -> int:
    hull = _body_or_cloud(args).hull()
    _emit(
        {
            "dim": hull.dim,
            "n_vertices": len(hull.vertices),
            "n_facets": int(hull.boundary.n_simplices),
            "volume": volume_det(hull.boundary),
            "vertices": hull.vertices.tolist(),
        }
    )
    return 0


def cmd_volume(args) -> int:
    boundary = load_body(args.body).boundary
    _emit({"volume_det": volume_det(boundary), "volume_projected": volume_projected(boundary)})
    return 0


def cmd_minkavg(args) -> int:
    avg = minkowski_average(_body_or_cloud(args), args.k)
    doc = {"k": args.k, "kind": avg.kind, "volume": avg.volume()}
    if avg.kind == "points":
        doc["points"] = np.round(avg.points, 12).tolist()
    _emit(doc)
    return 0


def cmd_revbm(args) -> int:
    A = BodyApprox.from_polytope(load_body(args.body_a))
    B = BodyApprox.from_polytope(load_body(args.body_b or args.body_a))
    _emit(dataclasses.asdict(reverse_bm_sweep(A, B, [args.s], [args.t], [args.m])[0]))
    return 0


def cmd_cover(args) -> int:
    cloud = load_cloud(args.cloud)
    rep = greedy_cover(cloud, args.epsilon)
    n_exact = exact_cover_small(cloud, args.epsilon) if args.exact else None
    _emit({"epsilon": rep.epsilon, "n_greedy": rep.n_greedy, "n_packing": rep.n_packing,
           "n_exact": n_exact})
    return 0


def cmd_gamma(args) -> int:
    cloud = load_cloud(args.cloud)
    fn = {"exact": gamma_exact_small, "greedy": gamma_greedy, "entropy": entropy_integral}[
        args.method
    ]
    est = fn(cloud, args.alpha)
    _emit({"alpha": est.alpha, "value": est.value, "method": est.method})
    return 0


def cmd_supgauss(args) -> int:
    cloud = load_cloud(args.cloud)
    seed = _seed_default(args.seed) or 0
    _emit(dataclasses.asdict(gaussian_sup_mc(cloud, args.trials, seed)))
    return 0


def cmd_profile(args) -> int:
    rep = l_existence_report(EntropyProfile(args.chi, args.psi), args.delta, args.C)
    _emit(
        {
            "chi": args.chi,
            "psi": args.psi,
            "delta": args.delta,
            "L_exists": rep.L_exists,
            "ratio_kind": rep.ratio.kind,
            "value": rep.verdict.value,
            "reason": rep.verdict.reason,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hullmetry", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a certification suite")
    run.add_argument("suite")
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--jobs", type=int, default=1)
    run.set_defaults(func=cmd_run)

    hull = sub.add_parser("hull", help="convex hull of a body or cloud")
    src = hull.add_mutually_exclusive_group(required=True)
    src.add_argument("--body")
    src.add_argument("--cloud")
    hull.set_defaults(func=cmd_hull)

    vol = sub.add_parser("volume", help="both boundary volume formulas")
    vol.add_argument("--body", required=True)
    vol.set_defaults(func=cmd_volume)

    mavg = sub.add_parser("minkavg", help="Minkowski average A(k)")
    msrc = mavg.add_mutually_exclusive_group(required=True)
    msrc.add_argument("--body")
    msrc.add_argument("--cloud")
    mavg.add_argument("--k", type=int, required=True)
    mavg.set_defaults(func=cmd_minkavg)

    rbm = sub.add_parser("revbm", help="reverse Brunn-Minkowski check")
    rbm.add_argument("--body-a", required=True)
    rbm.add_argument("--body-b")
    rbm.add_argument("--s", type=float, default=1.0)
    rbm.add_argument("--t", type=float, default=1.0)
    rbm.add_argument("--m", type=int, default=1)
    rbm.set_defaults(func=cmd_revbm)

    cov = sub.add_parser("cover", help="covering report for a cloud")
    cov.add_argument("--cloud", required=True)
    cov.add_argument("--epsilon", type=float, required=True)
    cov.add_argument("--exact", action="store_true")
    cov.set_defaults(func=cmd_cover)

    gam = sub.add_parser("gamma", help="chaining functional estimate")
    gam.add_argument("--cloud", required=True)
    gam.add_argument("--alpha", type=float, default=2.0)
    gam.add_argument("--method", choices=["exact", "greedy", "entropy"], default="greedy")
    gam.set_defaults(func=cmd_gamma)

    sup = sub.add_parser("supgauss", help="Monte Carlo Gaussian supremum")
    sup.add_argument("--cloud", required=True)
    sup.add_argument("--trials", type=int, default=10000)
    sup.add_argument("--seed", type=int, default=None)
    sup.set_defaults(func=cmd_supgauss)

    prof = sub.add_parser("profile", help="entropy-profile existence verdict")
    prof.add_argument("--chi", type=float, required=True)
    prof.add_argument("--psi", type=float, required=True)
    prof.add_argument("--delta", type=float, default=1.0)
    prof.add_argument("--C", type=float, default=1.0)
    prof.set_defaults(func=cmd_profile)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except INPUT_ERRORS + (OSError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
