"""Command-line surface.

Verbs: sample, project, potential, angles, map, check, info.  Reports are
line-oriented `key value` pairs for machine parsing.  Exit codes: 0 success,
1 property/cross-check failure, 2 input or membership error.

`sample` draws with the samplers' fixed spread (sampling._SPREAD), judges
its draw by the one rule of the set it names, at --tol, and writes no file
for a draw outside that set (exit 2).  The file's meta records the seed and
the set.

`map --which psi1` prints eta_on_P_residual and eta_norm of the cotangent
datum it writes, read off the n x p fiber V.  `map --which psi3` prints the
transversality of the pair it writes, the pair psi3 returns, and does not
form psi3's n x n orbit operator z.

The argument parser is built once per process (`build_parser` is cached,
so every caller shares it and none may change it): rebuilding the whole
argparse tree was a fixed cost that every verb paid.
`main` looks the verb's handler up by name in this module when it runs, not
through the function object the cached parser holds, so a handler replaced
after the first call (a test's monkeypatch, a profiler's wrapper) is the
one that runs.  `parse_args(...).func` stays set for callers that dispatch
themselves.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__, checks, jsonio
from .config import DEFAULT_MEMBERSHIP_TOL
from .errors import HkqError, NotInStable3, NotOnLevelSet
from .grassmann import _orbit_pair, characteristic_angles, psi1
from .hkspace import Truncation, flat_potential_K
from .matcore import dagger, fnorm
from .moment import _stable1_qr, _stable3_frames, in_stable1, level_residual, on_level_set
from .potentials import K3_hat_angles, _route_spread, evaluate_routes
from .quotient import project1, project3
from .sampling import make_rng, sample_point

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2

CROSS_ROUTE_TOL = 1e-8


def _emit(key: str, value) -> None:
    if isinstance(value, float):  # np.float64 too: its repr is not a bare number
        print(f"{key} {float(value)!r}")
    else:
        print(f"{key} {value}")


def _cmd_sample(args) -> int:
    trunc = Truncation(args.p, args.q, args.k)
    rng = make_rng(args.seed)
    pt = sample_point(args.space, trunc, rng)
    refusal = f"sampled point is not in the {args.space} set at tol {args.tol:g}"
    if args.space == "stable1":
        _stable1_qr(pt, args.tol, refusal)
    elif args.space == "stable3":
        _stable3_frames(pt, args.tol, refusal)
    elif not on_level_set(pt, args.tol):
        raise NotOnLevelSet(refusal)
    jsonio.save_point(args.output, pt, meta={"seed": args.seed, "generator": args.space})
    rc, rr = level_residual(pt)
    _emit("space", args.space)
    _emit("p", trunc.p)
    _emit("q", trunc.q)
    _emit("k", trunc.k)
    _emit("seed", args.seed)
    _emit("level_residual_complex", rc)
    _emit("level_residual_real", rr)
    _emit("written", args.output)
    return EXIT_OK


def _cmd_project(args) -> int:
    pt = jsonio.load_point(args.input)
    if args.structure == "i1":
        res = project1(pt, args.tol)
        _emit("structure", "i1")
        _emit("group_eigenvalues", " ".join(repr(float(v)) for v in res.eigenvalues))
    else:
        res = project3(pt, args.tol)
        _emit("structure", "i3")
        _emit("h_eigenvalues", " ".join(repr(float(v)) for v in res.eigenvalues))
    rc, rr = level_residual(res.point)
    _emit("residual_complex", rc)
    _emit("residual_real", rr)
    _emit("flat_potential", flat_potential_K(res.point))
    jsonio.save_point(args.output, res.point,
                      meta={"projected": args.structure, "source": str(args.input)})
    _emit("written", args.output)
    return EXIT_OK


def _cmd_potential(args) -> int:
    pt = jsonio.load_point(args.input)
    routes = evaluate_routes(pt, args.which, args.tol)
    if args.route != "all":
        if args.route not in routes:
            print(f"error unknown route {args.route!r} for {args.which}; "
                  f"available {sorted(routes)}", file=sys.stderr)
            return EXIT_INPUT
        routes = {args.route: routes[args.route]}
    for name, value in sorted(routes.items()):
        _emit(f"{args.which}.{name}", value)
    if len(routes) > 1:
        spread, rel = _route_spread(routes.values())
        _emit("max_route_delta", spread)
        _emit("max_route_delta_relative", rel)
        if not rel <= CROSS_ROUTE_TOL:  # a NaN spread fails too
            _emit("cross_check", "FAIL")
            return EXIT_PROPERTY
        _emit("cross_check", "pass")
    return EXIT_OK


def _cmd_angles(args) -> int:
    pair, k = jsonio.load_pair(args.input)
    if args.k is not None:  # the rule a file's k obeys (Truncation's)
        k = Truncation(pair.P.dim, pair.P.ambient - pair.P.dim, args.k).k
    theta = characteristic_angles(pair, args.tol)
    a = np.tan(theta)
    for i, (t, ai) in enumerate(zip(theta, a)):
        _emit(f"theta_{i}", float(t))
        _emit(f"a_{i}", float(ai))
    _emit("transversality", pair.transversality())
    if k is None:
        print("error K3_hat needs k: none in file, pass --k", file=sys.stderr)
        return EXIT_INPUT
    _emit("k", float(k))
    _emit("K3_hat", K3_hat_angles(pair, k, args.tol))
    return EXIT_OK


def _cmd_map(args) -> int:
    pt = jsonio.load_point(args.input)
    if args.which == "psi1":
        cp = psi1(pt, args.tol)
        jsonio.save_cotangent(args.output, cp, pt.trunc.k)
        _emit("map", "psi1")
        # eta = F_P V*: ||eta F_P|| = ||F_P* V||, ||eta|| = ||V||
        _emit("eta_on_P_residual", fnorm(dagger(cp.P.frame) @ cp.V))
        _emit("eta_norm", fnorm(cp.V))
    else:
        pair = _orbit_pair(pt, args.tol)
        jsonio.save_pair(args.output, pair, k=pt.trunc.k)
        _emit("map", "psi3")
        _emit("transversality", pair.transversality())
    _emit("written", args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    results, ok = checks.run_suites(names, args.trials, args.seed)
    for r in results:
        print(r.line())
    _emit("suites", " ".join(names))
    _emit("checks_total", len(results))
    _emit("checks_failed", sum(1 for r in results if not r.passed))
    _emit("overall", "pass" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_PROPERTY


def _cmd_info(args) -> int:
    if args.input is None:
        _emit("package", "hkq")
        _emit("version", __version__)
        _emit("membership_tol", args.tol)
        _emit("suites", " ".join(checks.SUITES))
        return EXIT_OK
    pt = jsonio.load_point(args.input)
    rc, rr = level_residual(pt)
    _emit("p", pt.trunc.p)
    _emit("q", pt.trunc.q)
    _emit("k", pt.trunc.k)
    _emit("k2_over_2_integral", pt.trunc.integrality_ok)
    _emit("level_residual_complex", rc)
    _emit("level_residual_real", rr)
    _emit("on_level_set", on_level_set(pt, args.tol))
    _emit("in_stable1", in_stable1(pt, args.tol))
    # psi3's pair is judged by in_stable3's one computation at the same
    # tol, so its verdict is in_stable3's, and the pair gives the angles
    try:
        pair = _orbit_pair(pt, args.tol)
    except NotInStable3:
        pair = None
    _emit("in_stable3", pair is not None)
    if pair is not None:
        theta = characteristic_angles(pair, args.tol)
        _emit("characteristic_angles", " ".join(repr(float(t)) for t in theta))
    return EXIT_OK


def _membership_tol(text: str) -> float:
    """The type of --tol: argparse refuses all but floats in (0, 1).  At
    tol >= 1 no point is stable: sigma_min > tol * sigma_max cannot hold."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hkq",
        description="Hyperkahler quotient toolkit for the truncated "
                    "restricted Grassmannian.",
    )
    ap.add_argument("--tol", type=_membership_tol, default=DEFAULT_MEMBERSHIP_TOL,
                    help="membership tolerance: equations to tol * k^2, rank "
                         "to sigma_min > tol * sigma_max (0 < tol < 1; "
                         "default 1e-9)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a point of a named set")
    p.add_argument("--space", choices=["level", "stable1", "stable3"],
                   required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-k", type=float, default=float(np.sqrt(2.0)))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("project", help="project a point onto the level set")
    p.add_argument("--structure", choices=["i1", "i3"], required=True)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("potential", help="evaluate a potential by its routes")
    p.add_argument("--which", choices=["flat", "k1", "k3", "k3hat"],
                   required=True)
    p.add_argument("--route", default="all")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("angles", help="characteristic angles of a pair file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--k", type=float, default=None)
    p.set_defaults(func=_cmd_angles)

    p = sub.add_parser("map", help="apply psi1 or psi3 to a point file")
    p.add_argument("--which", choices=["psi1", "psi3"], required=True)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("check", help="run the property suites")
    p.add_argument("--suite",
                   choices=["all"] + sorted(checks.SUITES), default="all")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("info", help="describe a point file or the package")
    p.add_argument("-i", "--input", default=None)
    p.set_defaults(func=_cmd_info)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func.__name__](args)
    except HkqError as exc:
        print(f"error {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError) as exc:
        print(f"error {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
