"""Randomized property suites behind `hkq check` and the acceptance tests.

Each suite is a table of identity families.  A family is one sampler, a
generator `trial(rng)` that draws one desk-scale instance and yields
(check name, residual) for every identity that reads it, with a
{check name: tol} table and a divisor: it runs max(1, trials // divisor)
trials.  One driver, `_run`, folds each check's worst residual.  Trial t of
family f in suite s draws from its own generator,
SeedSequence(seed, spawn_key=(s, f, t)), so a suite draws the same alone or
among others, and the trial each result names as its worst reruns alone
bit for bit.  A NaN residual sticks and fails its check.  A trial that
raises fails every check of its family, with a note naming the trial and
the exception; the other families and suites still run.  Failures are
data, not exceptions: the runner aggregates them into an exit code.

At each level point the suites check membership and factor
M = x*x + X*X once, in one `slice_basis`, and read every tangent
projection and every reduced form (the metric or omega_j of two horizontal
projections) off that basis.  The reuse cannot mask a fault: each identity
still compares projector outputs against each other or against closed forms
(idempotence, orbit vectors fixed, dF of the level projection, the
five-block decomposition), and a wrong spectrum breaks those at once.
The one comparison the sharing empties is between two calls on the same
factorization, which could only ever agree.

The same holds for the memo of points and pairs (hkspace._memo): a trial
that projects a point and then evaluates its routes, as the potentials
family does for the quotient-potential chain, reads project1's memoized
result twice.  Two such calls on one value could only ever agree, and no
identity compares them: each compares different values (a point and its
image under the group, a section and the pair it came from) or different
routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import potentials as pots
from .grassmann import (
    OrbitPair,
    Subspace,
    characteristic_angles,
    projector_distance,
    psi1,
    psi1_section,
    psi3,
    psi3_section,
)
from .hkspace import (
    ConfigPoint,
    TangentPair,
    Truncation,
    _point,
    act1,
    act3,
    apply_I,
    flat_potential_K,
    metric_g,
    omega,
    omega_C,
)
from .matcore import dagger, fnorm
from .moment import moment, moment_pairing_check
from .quotient import project1, slice_basis
from .sampling import (
    _hermitian_ball,
    gaussian_complex,
    random_group_positive,
    random_skew,
    random_tangent,
    random_unitary,
    sample_cotangent,
    sample_level,
    sample_orbit_pair,
    sample_stable1,
    sample_stable3,
)

__all__ = ["CheckResult", "SUITES", "run_suite", "run_suites"]

Residuals = Iterator[tuple[str, float]]


@dataclass
class CheckResult:
    suite: str
    name: str
    residual: float
    tol: float
    trials: int
    note: str = ""
    worst_trial: int | None = None

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = (f"{status} {self.suite}.{self.name} "
               f"residual {self.residual:.3e} tol {self.tol:.1e} "
               f"trials {self.trials}")
        if self.worst_trial is not None:
            out += f" worst trial {self.worst_trial}"
        if self.note:
            out += f" ({self.note})"
        return out


class Family(NamedTuple):
    trial: Callable[[np.random.Generator], Residuals]
    tols: dict[str, float]
    divisor: int = 1


def _trial_rng(seed: int, suite: str, family: int, trial: int) -> np.random.Generator:
    key = (int.from_bytes(suite.encode(), "big"), family, trial)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def _run(suite: str, families: list[Family], trials: int, seed: int) -> list[CheckResult]:
    results = []
    for index, family in enumerate(families):
        n = max(1, trials // family.divisor)
        worst = dict.fromkeys(family.tols, (-math.inf, None))
        note = ""
        for t in range(n):
            rng = _trial_rng(seed, suite, index, t)  # a bad seed is the caller's error
            try:
                for name, r in family.trial(rng):
                    w = worst[name][0]
                    # a NaN residual replaces any number and is never replaced
                    if not (math.isnan(w) or r <= w):
                        worst[name] = (float(r), t)
            except Exception as exc:
                worst = dict.fromkeys(family.tols, (math.nan, None))
                note = f"trial {t} raised {type(exc).__name__}: {exc}"
                break
        # a check no trial measured keeps the vacuous residual 0
        results += [CheckResult(suite, name, 0.0 if r == -math.inf else r, tol, n, note, t)
                    for (name, tol), (r, t) in zip(family.tols.items(), worst.values())]
    return results


def _rand_trunc(rng, max_dim=6) -> Truncation:
    return Truncation(int(rng.integers(1, max_dim + 1)),
                      int(rng.integers(1, max_dim + 1)), float(np.sqrt(2.0)))


def _rand_point(trunc, rng) -> ConfigPoint:
    """Generic point of the ambient space (no membership)."""
    return ConfigPoint(trunc, trunc.base_x() + gaussian_complex(rng, (trunc.n, trunc.p)),
                       gaussian_complex(rng, (trunc.n, trunc.p)))


def _rel(delta: float, scale: float) -> float:
    return delta / max(1.0, abs(scale))


def _blocks(name: str, d: TangentPair, scale: float = 1.0) -> Residuals:
    """One residual per block of a tangent difference."""
    yield name, fnorm(d.Z) / scale
    yield name, fnorm(d.T) / scale


# ---------------------------------------------------------------------------
# quaternion suite: flat-space algebra
# ---------------------------------------------------------------------------

def _quaternion_trial(rng) -> Residuals:
    trunc = _rand_trunc(rng)
    v1 = random_tangent(trunc, rng)
    v2 = random_tangent(trunc, rng)

    # quaternion relations I_a I_b = I_c and I_j^2 = -1, exact
    for (a, b, c) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        yield from _blocks("algebra_exact", apply_I(a, apply_I(b, v1)) - apply_I(c, v1))
        yield from _blocks("algebra_exact", apply_I(a, apply_I(a, v1)) + v1)

    scale = 1.0 + abs(metric_g(v1, v1)) + abs(metric_g(v2, v2))
    for j in (1, 2, 3):
        yield "isometry", abs(
            metric_g(apply_I(j, v1), apply_I(j, v2)) - metric_g(v1, v2)) / scale
        yield "omega_vs_metric", abs(
            omega(j, v1, v2) - metric_g(apply_I(j, v1), v2)) / scale

    # explicit trace formulas vs the metric route
    w1 = (np.sum(v1.Z.conj() * v2.Z) - np.sum(v1.T.conj() * v2.T)).imag
    om = omega_C(v1, v2)
    for d in (omega(1, v1, v2) - w1, om.real - omega(2, v1, v2),
              om.imag - omega(3, v1, v2), omega(1, v1, v1), omega_C(v1, v1)):
        yield "omega_vs_metric", abs(d) / scale

    # I1-holomorphy of the complex form
    yield "omegaC_holomorphy", abs(
        omega_C(apply_I(1, v1), v2) - 1j * omega_C(v1, v2)) / scale


def suite_quaternion(trials: int, seed: int) -> list[CheckResult]:
    return _run("quaternion", [
        Family(_quaternion_trial, {"algebra_exact": 0.0, "isometry": 1e-12,
                                   "omega_vs_metric": 1e-12, "omegaC_holomorphy": 1e-12}),
    ], trials, seed)


# ---------------------------------------------------------------------------
# moment suite
# ---------------------------------------------------------------------------

def _moment_trial(rng) -> Residuals:
    trunc = _rand_trunc(rng)
    pt = _rand_point(trunc, rng)
    a = random_skew(trunc.p, rng)
    v = random_tangent(trunc, rng)
    j = int(rng.integers(1, 4))
    lhs, rhs = moment_pairing_check(pt, a, v, j)
    yield "pairing_oracle", abs(lhs - rhs) / (1.0 + abs(lhs))

    u = random_unitary(trunc.p, rng)
    moved = act1(u, pt)
    m0s = {tag: moment(tag, pt) for tag in ("mu1", "muC")}
    for tag, m0 in m0s.items():
        yield "ad_equivariance", (fnorm(moment(tag, moved) - u @ m0 @ dagger(u))
                                  / (1.0 + fnorm(m0)))

    # holomorphy: d(muC) along I1 v equals i d(muC) along v, closed form
    def dmuc(w: TangentPair) -> np.ndarray:
        return dagger(pt.X) @ w.Z + dagger(w.T) @ pt.x

    yield "muC_holomorphy", (fnorm(dmuc(apply_I(1, v)) - 1j * dmuc(v))
                             / (1.0 + fnorm(dmuc(v))))

    # matrix recombination muC = mu2 + i mu3, exact
    muc = m0s["muC"]
    yield "muC_recombination", (fnorm(muc - moment("mu2", pt) - 1j * moment("mu3", pt))
                                / (1.0 + fnorm(muc)))


def _level_value_trial(rng) -> Residuals:
    trunc = _rand_trunc(rng, max_dim=4)
    pt = sample_level(trunc, rng)
    target = -0.5j * trunc.k2 * np.eye(trunc.p)
    yield "level_value", fnorm(moment("mu1", pt) - target) / trunc.k2


def suite_moment(trials: int, seed: int) -> list[CheckResult]:
    return _run("moment", [
        Family(_moment_trial, {"pairing_oracle": 1e-11, "ad_equivariance": 1e-10,
                               "muC_holomorphy": 1e-12, "muC_recombination": 1e-14}),
        Family(_level_value_trial, {"level_value": 1e-9}, 5),
    ], trials, seed)


# ---------------------------------------------------------------------------
# reduction suite
# ---------------------------------------------------------------------------

def _reduction_trial(rng) -> Residuals:
    trunc = _rand_trunc(rng, max_dim=4)
    pt = sample_level(trunc, rng)
    basis = slice_basis(pt)
    v = random_tangent(trunc, rng)
    nv = np.sqrt(metric_g(v, v)) + 1.0

    po = basis.orbit(v)
    pl = basis.level(v)
    ph = basis.horizontal(v)
    for d in (basis.orbit(po) - po, basis.level(pl) - pl, basis.horizontal(ph) - ph):
        yield from _blocks("projector_idempotence", d, nv)
    b = random_skew(trunc.p, rng)
    orbit_dir = TangentPair(-pt.x @ b, -pt.X @ b)
    yield "orbit_horizontal_orthogonality", (
        abs(metric_g(ph, orbit_dir))
        / (nv * (1.0 + np.sqrt(metric_g(orbit_dir, orbit_dir)))))
    # orbit vectors are fixed by the orbit and level projectors
    for proj in (basis.orbit, basis.level):
        yield from _blocks("orbit_vectors_fixed", proj(orbit_dir) - orbit_dir, nv)

    # level projection lands in ker dF
    a_c = dagger(pt.X) @ pl.Z + dagger(pl.T) @ pt.x
    b_c = (dagger(pt.x) @ pl.Z + dagger(pl.Z) @ pt.x
           - dagger(pt.X) @ pl.T - dagger(pl.T) @ pt.X)
    yield "level_projection_in_kernel", (fnorm(a_c) + fnorm(b_c)) / nv

    # horizontal slice is I-stable
    for j in (1, 2, 3):
        ih = apply_I(j, ph)
        yield "horizontal_I_stability", fnorm((basis.horizontal(ih) - ih).Z) / nv

    # project1 equivariance and the intersection property
    u = random_unitary(trunc.p, rng)
    pt_u = act1(u, pt)
    lhs = project1(pt_u).point
    rhs = act1(u, project1(pt).point)
    yield "project1_equivariance", fnorm(lhs.x - rhs.x) / (1.0 + fnorm(rhs.x))
    yield "project1_equivariance", fnorm(lhs.X - rhs.X) / (1.0 + fnorm(rhs.X))

    g0 = random_group_positive(trunc.p, rng)
    pr = project1(act1(g0, pt))
    back = pr.point
    w = np.linalg.solve(dagger(back.x) @ back.x, dagger(back.x) @ pt.x)
    yield "orbit_meets_level_in_compact_orbit", fnorm(dagger(w) @ w - np.eye(trunc.p))
    yield "orbit_meets_level_in_compact_orbit", (fnorm(pt.X - back.X @ w)
                                                 / (1.0 + fnorm(pt.X)))

    comp = pr.group_part @ g0
    yield "polar_uniqueness", fnorm(dagger(comp) @ comp - np.eye(trunc.p))

    # reduced pairings: representative independence + orbit kernel, each
    # vector projected once on its representative's slice basis
    v2 = random_tangent(trunc, rng)
    uin = np.linalg.inv(u)
    basis_u = slice_basis(pt_u)
    h2 = basis.horizontal(v2)
    hu = basis_u.horizontal(TangentPair(v.Z @ uin, v.T @ uin))
    h2u = basis_u.horizontal(TangentPair(v2.Z @ uin, v2.T @ uin))
    for form in (metric_g, partial(omega, 1), partial(omega, 2), partial(omega, 3)):
        val = form(ph, h2)
        yield ("reduced_pairing_representative_independence",
               abs(val - form(hu, h2u)) / (1.0 + abs(val)))
    h_orbit = basis.horizontal(orbit_dir)
    yield "reduced_pairing_orbit_kernel", abs(metric_g(h_orbit, h2)) / nv
    yield "reduced_pairing_orbit_kernel", abs(omega(1, ph, h_orbit)) / nv


def _slice_decomposition_trial(rng) -> Residuals:
    trunc = _rand_trunc(rng, max_dim=4)
    pt = sample_level(trunc, rng)
    basis = slice_basis(pt)
    v = random_tangent(trunc, rng)
    nv = np.sqrt(metric_g(v, v)) + 1.0
    parts = [basis.orbit(v), basis.horizontal(v)]
    parts += [basis.i_orbit(j, v) for j in (1, 2, 3)]
    total = sum(parts[1:], parts[0])
    yield from _blocks("slice_decomposition", total - v, nv)
    for i in range(5):
        for j in range(i + 1, 5):
            ni = np.sqrt(metric_g(parts[i], parts[i])) + 1.0
            nj = np.sqrt(metric_g(parts[j], parts[j])) + 1.0
            yield "slice_decomposition", abs(metric_g(parts[i], parts[j])) / (ni * nj)


def suite_reduction(trials: int, seed: int) -> list[CheckResult]:
    return _run("reduction", [
        Family(_reduction_trial, {
            "projector_idempotence": 1e-10, "orbit_horizontal_orthogonality": 1e-10,
            "orbit_vectors_fixed": 1e-10, "level_projection_in_kernel": 1e-9,
            "horizontal_I_stability": 1e-9, "project1_equivariance": 1e-9,
            "orbit_meets_level_in_compact_orbit": 1e-8, "polar_uniqueness": 1e-9,
            "reduced_pairing_representative_independence": 1e-9,
            "reduced_pairing_orbit_kernel": 1e-10}),
        Family(_slice_decomposition_trial, {"slice_decomposition": 1e-8}, 3),
    ], trials, seed)


# ---------------------------------------------------------------------------
# potentials suite
# ---------------------------------------------------------------------------

def _potentials_trial(rng) -> Residuals:
    trunc = _rand_trunc(rng)
    pt = sample_stable1(trunc, rng)
    routes = pots.evaluate_routes(pt, "k1")
    vals = list(routes.values())
    yield "k1_route_agreement", pots._route_spread(vals)[1]

    # compact invariance
    u = random_unitary(trunc.p, rng)
    yield "k1_compact_invariance", _rel(
        abs(pots.K1_closed(act1(u, pt)) - routes["closed"]), vals[0])

    # the chain identity: value at pt minus the transport character
    # equals the value at the projected point
    pr = project1(pt)
    lhs = routes["level"] - pots.character_log_term(pr.group_part, trunc.k)
    rhs = pots.quotient_potential(pr.point)
    yield "quotient_potential_chain", _rel(abs(lhs - rhs), rhs)

    pt3 = sample_stable3(trunc, rng)
    k3routes = pots.evaluate_routes(pt3, "k3")
    vals3 = list(k3routes.values())
    yield "k3_route_agreement", pots._route_spread(vals3)[1]
    u3 = random_unitary(trunc.p, rng)

    # zero-section pinning and the vanishing locus
    x_only = ConfigPoint(trunc, pt.x, np.zeros_like(pt.X))
    lam = np.linalg.eigvalsh(dagger(pt.x) @ pt.x)
    logdet = 0.25 * trunc.k2 * float(np.sum(np.log(lam / trunc.k2)))
    yield "zero_section_pinning", abs(pots.K1_closed(x_only) - logdet)
    yield "k3_vanishing_on_zero_fiber", abs(pots.K3_spectral(project1(x_only).point))

    # cotangent form of the third potential: direct vs curvature route
    vv = gaussian_complex(rng, (trunc.q, trunc.p))
    val_d = pots.K3_hat_cotangent(vv, trunc.k, "direct")
    val_c = pots.K3_hat_cotangent(vv, trunc.k, "curvature")
    yield "k3hat_route_agreement", _rel(abs(val_d - val_c), val_d)

    # the complexified groups, drawn last so the draws above stay put.  K1
    # obeys the group law K1(g.pt) - K1(pt) = -(k^2/2) log|det g| exactly;
    # K3 is invariant under the third action with a nonzero positive part,
    # which the flat potential is not
    g = random_group_positive(trunc.p, rng) @ random_unitary(trunc.p, rng)
    shift = -0.5 * trunc.k2 * np.linalg.slogdet(g)[1]
    yield "k1_group_law", _rel(
        abs(pots.K1_closed(act1(g, pt)) - routes["closed"] - shift), vals[0])
    h = _hermitian_ball(trunc.p, rng, 1.0)
    yield "k3_orbit_invariance", _rel(
        abs(pots.K3_spectral(act3(h, u3, pt3)) - k3routes["spectral"]), vals3[0])


def suite_potentials(trials: int, seed: int) -> list[CheckResult]:
    return _run("potentials", [
        Family(_potentials_trial, {
            "k1_route_agreement": 1e-9, "k3_route_agreement": 1e-8,
            "k1_compact_invariance": 1e-10, "k3_orbit_invariance": 1e-10,
            "zero_section_pinning": 1e-12, "k3_vanishing_on_zero_fiber": 1e-12,
            "quotient_potential_chain": 1e-10, "k3hat_route_agreement": 1e-11,
            "k1_group_law": 1e-10}),
    ], trials, seed)


# ---------------------------------------------------------------------------
# maps suite
# ---------------------------------------------------------------------------

def _maps_trial(rng) -> Residuals:
    trunc = _rand_trunc(rng)
    k = trunc.k

    cp = sample_cotangent(trunc, rng)
    back = psi1(psi1_section(cp, k))
    yield "psi1_round_trip", projector_distance(cp.P, back.P)
    yield "psi1_round_trip", fnorm(cp.eta - back.eta) / (1.0 + fnorm(cp.eta))

    pair = sample_orbit_pair(trunc, rng)
    sec = psi3_section(pair, k)
    pair_back = psi3(sec)[0]
    yield "psi3_round_trip", projector_distance(pair.P, pair_back.P)
    yield "psi3_round_trip", projector_distance(pair.Qperp, pair_back.Qperp)

    # the section is the canonical point of its fiber: X = -(k/2) F_Pperp A
    # has no component in P = Ran(x + X), so X*(x + X) = 0; a section moved
    # along the fiber still round-trips, but fails here
    yield "psi3_section_canonical", fnorm(dagger(sec.X) @ (sec.x + sec.X)) / trunc.k2

    # fiber constancy
    pt1 = sample_stable1(trunc, rng)
    img = psi1(pt1)
    g = random_group_positive(trunc.p, rng) @ random_unitary(trunc.p, rng)
    img_g = psi1(act1(g, pt1))
    yield "psi1_fiber_constancy", projector_distance(img.P, img_g.P)
    yield "psi1_fiber_constancy", fnorm(img.eta - img_g.eta) / (1.0 + fnorm(img.eta))

    pt3 = sample_stable3(trunc, rng)
    pair0, _ = psi3(pt3)
    h = _hermitian_ball(trunc.p, rng, 1.0)  # the spectrum act3 reads
    u = random_unitary(trunc.p, rng)
    pair_h, _ = psi3(act3(h, u, pt3))
    yield "psi3_fiber_constancy", projector_distance(pair0.P, pair_h.P)
    yield "psi3_fiber_constancy", projector_distance(pair0.Qperp, pair_h.Qperp)

    # angle invariance under a common ambient unitary
    w = random_unitary(trunc.n, rng)
    conj_pair = OrbitPair(Subspace(w @ pair.P.frame), Subspace(w @ pair.Qperp.frame))
    t0 = characteristic_angles(pair)
    t1 = characteristic_angles(conj_pair)
    yield "angle_unitary_invariance", float(np.max(np.abs(t0 - t1))) if t0.size else 0.0


def suite_maps(trials: int, seed: int) -> list[CheckResult]:
    return _run("maps", [
        Family(_maps_trial, {
            "psi1_round_trip": 1e-10, "psi3_round_trip": 1e-10,
            "psi1_fiber_constancy": 1e-9, "psi3_fiber_constancy": 1e-9,
            "psi3_section_canonical": 1e-9, "angle_unitary_invariance": 1e-10}),
    ], trials, seed)


# ---------------------------------------------------------------------------
# ddc suite: finite-difference potential checks
# ---------------------------------------------------------------------------

def _mixed_second(f: Callable[[TangentPair], float], a: TangentPair,
                  b: TangentPair, step: float) -> float:
    """Central difference of f along a and b.  The four displacements are
    +-(sa + sb) and +-(sa - sb) with sa = step a, sb = step b: IEEE rounding
    is symmetric in sign, so each negation is exactly the sum of the
    negated scalings."""
    sa, sb = step * a, step * b
    plus, minus = sa + sb, sa - sb
    return (f(plus) - f(minus) - f(-minus) + f(-plus)) / (4.0 * step * step)


def _ddc(f: Callable[[TangentPair], float], j: int, u: TangentPair,
         v: TangentPair, step: float) -> float:
    """Finite-difference d d^c_j f (u, v) with d^c f := -df o I_j:
    Hess(I_j u, v) - Hess(u, I_j v)."""
    return (_mixed_second(f, apply_I(j, u), v, step)
            - _mixed_second(f, u, apply_I(j, v), step))


def _holomorphic_stable1_chart(pt0: ConfigPoint):
    """Exactly holomorphic local parametrization of the first stable set.

    In coordinates (x, Y) with Y the entrywise conjugate of X, the first
    complex structure is plain multiplication by i and the defining equation
    Y^T x = 0 is holomorphic and linear in Y; a single linear correction
    Y += conj(x0) C restores it exactly, and the correction depends
    holomorphically on the parameters.  The differential at 0 is the
    identity on the stable set's tangent space.
    """
    x0 = pt0.x
    y0 = pt0.X.conj()
    x0c = x0.conj()
    x0d = dagger(x0)

    def section(w: TangentPair) -> ConfigPoint:
        x = x0 + w.Z
        y = y0 + w.T.conj()
        r = y.T @ x
        c = -np.linalg.solve((x0d @ x).T, r.T)
        y = y + x0c @ c
        return _point(pt0.trunc, x, y.conj())

    return section


def _ddc_flat_trial(rng) -> Residuals:
    trunc = _rand_trunc(rng, max_dim=3)
    pt = _rand_point(trunc, rng)

    def kappa(w: TangentPair) -> float:
        return flat_potential_K(_point(trunc, pt.x + w.Z, pt.X + w.T))

    # one coordinate 2-plane and one random 2-plane per trial
    m = trunc.n * trunc.p
    e = np.eye(2 * m)
    zc, tc = ((e[i, :m] + 1j * e[i, m:]).reshape(trunc.n, trunc.p)
              for i in (int(rng.integers(0, 2 * m)), int(rng.integers(0, 2 * m))))
    zero = np.zeros_like(zc)
    pairs = [(TangentPair(zc, zero), TangentPair(zero, tc)),
             (random_tangent(trunc, rng), random_tangent(trunc, rng))]
    for u, v in pairs:
        nu = np.sqrt(metric_g(u, u)) or 1.0
        nv = np.sqrt(metric_g(v, v)) or 1.0
        u = (1.0 / nu) * u
        v = (1.0 / nv) * v
        for j in (1, 2, 3):
            rhs = omega(j, u, v)
            yield ("flat_potential_reproduces_omegas",
                   abs(_ddc(kappa, j, u, v, 1e-4) - rhs) / max(1.0, abs(rhs)))


def _ddc_reduced_trial(rng) -> Residuals:
    trunc = _rand_trunc(rng, max_dim=3)
    pt = sample_level(trunc, rng)
    section = _holomorphic_stable1_chart(pt)
    basis = slice_basis(pt)

    def kappa1(w: TangentPair) -> float:
        return pots.K1_closed(section(w))

    # the first of four horizontal pairs that is not degenerate
    for _ in range(4):
        u = basis.horizontal(random_tangent(trunc, rng))
        v = basis.horizontal(random_tangent(trunc, rng))
        nu = np.sqrt(metric_g(u, u))
        nv = np.sqrt(metric_g(v, v))
        if nu < 1e-6 or nv < 1e-6:
            continue
        u = (1.0 / nu) * u
        v = (1.0 / nv) * v
        rhs = omega(1, u, v)
        if abs(rhs) < 0.02:
            continue
        yield ("reduced_ddc_matches_reduced_omega1",
               abs(_ddc(kappa1, 1, u, v, 1e-3) - rhs) / abs(rhs))
        return


def suite_ddc(trials: int, seed: int) -> list[CheckResult]:
    return _run("ddc", [
        Family(_ddc_flat_trial, {"flat_potential_reproduces_omegas": 1e-5}),
        Family(_ddc_reduced_trial, {"reduced_ddc_matches_reduced_omega1": 1e-3}, 5),
    ], trials, seed)


SUITES: dict[str, Callable[[int, int], list[CheckResult]]] = {
    "quaternion": suite_quaternion,
    "moment": suite_moment,
    "reduction": suite_reduction,
    "potentials": suite_potentials,
    "maps": suite_maps,
    "ddc": suite_ddc,
}


def run_suite(name: str, trials: int, seed: int) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    # with no trials every residual stays 0.0 and the suite would pass vacuously
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return SUITES[name](trials, seed)


def run_suites(names, trials: int, seed: int) -> tuple[list[CheckResult], bool]:
    results = [r for name in names for r in run_suite(name, trials, seed)]
    return results, all(r.passed for r in results)
