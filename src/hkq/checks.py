"""Randomized property suites behind `hkq check` and the acceptance tests.

Each suite draws desk-scale random instances (p, q up to 6, up to 3 for the
finite-difference suite), evaluates one family of identities, and reports
the worst residual against the identity's tolerance.  Failures are data,
not exceptions: the runner aggregates them into an exit code.

At each level point the suites check membership and factor
M = x*x + X*X once, in one `slice_basis`, and read every tangent
projection and every reduced form (the metric or omega_j of two horizontal
projections) off that basis.  The reuse cannot mask a fault: each identity
still compares projector outputs against each other or against closed forms
(idempotence, orbit vectors fixed, dF of the level projection, the
five-block decomposition), and a wrong spectrum breaks those at once.
The one comparison the sharing empties is between two calls on the same
factorization, which could only ever agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import potentials as pots
from .grassmann import (
    OrbitPair,
    Subspace,
    characteristic_angles,
    curvature_op_I1,
    curvature_op_I1_via_R,
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
    act1,
    act3,
    apply_I,
    flat_potential_K,
    metric_g,
    omega,
    omega_C,
)
from .matcore import dagger, fnorm, herm_eig
from .moment import moment, moment_pairing_check
from .quotient import project1, slice_basis
from .sampling import (
    gaussian_complex,
    make_rng,
    random_group_positive,
    random_hermitian_ball,
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

DEFAULT_K = float(np.sqrt(2.0))


@dataclass
class CheckResult:
    suite: str
    name: str
    residual: float
    tol: float
    trials: int
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = (f"{status} {self.suite}.{self.name} "
               f"residual {self.residual:.3e} tol {self.tol:.1e} "
               f"trials {self.trials}")
        if self.note:
            out += f" ({self.note})"
        return out


def _rand_trunc(rng, max_dim=6, k=DEFAULT_K) -> Truncation:
    return Truncation(int(rng.integers(1, max_dim + 1)),
                      int(rng.integers(1, max_dim + 1)), k)


def _rand_point(trunc, rng) -> ConfigPoint:
    """Generic point of the ambient space (no membership)."""
    return ConfigPoint(trunc, trunc.base_x() + gaussian_complex(rng, (trunc.n, trunc.p)),
                       gaussian_complex(rng, (trunc.n, trunc.p)))


def _rel(delta: float, scale: float) -> float:
    return delta / max(1.0, abs(scale))


# ---------------------------------------------------------------------------
# quaternion suite: flat-space algebra
# ---------------------------------------------------------------------------

def suite_quaternion(trials: int, seed: int) -> list[CheckResult]:
    rng = make_rng(seed)
    res_alg = 0.0
    res_iso = 0.0
    res_comp = 0.0
    res_omega_c = 0.0
    res_flat = 0.0
    for _ in range(trials):
        trunc = _rand_trunc(rng)
        v1 = random_tangent(trunc, rng)
        v2 = random_tangent(trunc, rng)

        # quaternion relations, exact
        for (a, b, c) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            d = apply_I(a, apply_I(b, v1)) - apply_I(c, v1)
            res_alg = max(res_alg, fnorm(d.Z), fnorm(d.T))
        for j in (1, 2, 3):
            d = apply_I(j, apply_I(j, v1)) + v1
            res_alg = max(res_alg, fnorm(d.Z), fnorm(d.T))

        scale = 1.0 + abs(metric_g(v1, v1)) + abs(metric_g(v2, v2))
        for j in (1, 2, 3):
            res_iso = max(res_iso, abs(
                metric_g(apply_I(j, v1), apply_I(j, v2)) - metric_g(v1, v2)
            ) / scale)
            res_comp = max(res_comp, abs(
                omega(j, v1, v2) - metric_g(apply_I(j, v1), v2)
            ) / scale)

        # explicit trace formulas vs the metric route
        w1 = (np.sum(v1.Z.conj() * v2.Z) - np.sum(v1.T.conj() * v2.T)).imag
        res_comp = max(res_comp, abs(omega(1, v1, v2) - w1) / scale)
        om = omega_C(v1, v2)
        res_comp = max(res_comp, abs(om.real - omega(2, v1, v2)) / scale)
        res_comp = max(res_comp, abs(om.imag - omega(3, v1, v2)) / scale)
        res_comp = max(res_comp, abs(omega(1, v1, v1)) / scale,
                       abs(omega_C(v1, v1)) / scale)

        # I1-holomorphy of the complex form
        res_omega_c = max(res_omega_c, abs(
            omega_C(apply_I(1, v1), v2) - 1j * omega_C(v1, v2)
        ) / scale)

        # closedness smoke test: the forms have constant coefficients, so the
        # finite-difference exterior derivative over displaced base points
        # vanishes identically; this exercises the evaluation path only
        pt = _rand_point(trunc, rng)
        v3 = random_tangent(trunc, rng)
        step = 1e-4

        def omega_at(base: ConfigPoint, j: int, a: TangentPair,
                     b: TangentPair) -> float:
            del base  # flat space: forms do not depend on the point
            return omega(j, a, b)

        def displaced(direction: TangentPair, sign: float) -> ConfigPoint:
            return ConfigPoint(trunc, pt.x + sign * step * direction.Z,
                               pt.X + sign * step * direction.T)

        for j in (1, 2, 3):
            d_ext = 0.0
            for (d, a, b), sgn in (((v1, v2, v3), 1.0), ((v2, v1, v3), -1.0),
                                   ((v3, v1, v2), 1.0)):
                deriv = (omega_at(displaced(d, 1.0), j, a, b)
                         - omega_at(displaced(d, -1.0), j, a, b)) / (2 * step)
                d_ext += sgn * deriv
            res_flat = max(res_flat, abs(d_ext))

    return [
        CheckResult("quaternion", "algebra_exact", res_alg, 0.0, trials),
        CheckResult("quaternion", "isometry", res_iso, 1e-12, trials),
        CheckResult("quaternion", "omega_vs_metric", res_comp, 1e-12, trials),
        CheckResult("quaternion", "omegaC_holomorphy", res_omega_c, 1e-12, trials),
        CheckResult("quaternion", "flatness_smoke", res_flat, 1e-12, trials),
    ]


# ---------------------------------------------------------------------------
# moment suite
# ---------------------------------------------------------------------------

def suite_moment(trials: int, seed: int) -> list[CheckResult]:
    rng = make_rng(seed)
    res_pair = 0.0
    res_equiv = 0.0
    res_holo = 0.0
    res_level = 0.0
    res_recomb = 0.0
    for _ in range(trials):
        trunc = _rand_trunc(rng)
        pt = _rand_point(trunc, rng)
        a = random_skew(trunc.p, rng)
        v = random_tangent(trunc, rng)
        j = int(rng.integers(1, 4))
        lhs, rhs = moment_pairing_check(pt, a, v, j)
        res_pair = max(res_pair, abs(lhs - rhs) / (1.0 + abs(lhs)))

        u = random_unitary(trunc.p, rng)
        moved = act1(u, pt)
        m0s = {tag: moment(tag, pt) for tag in ("mu1", "muC")}
        for tag, m0 in m0s.items():
            m1 = moment(tag, moved)
            conj = u @ m0 @ dagger(u)
            res_equiv = max(res_equiv, fnorm(m1 - conj) / (1.0 + fnorm(m0)))

        # holomorphy: d(muC) along I1 v equals i d(muC) along v, closed form
        def dmuc(w: TangentPair) -> np.ndarray:
            return dagger(pt.X) @ w.Z + dagger(w.T) @ pt.x

        res_holo = max(res_holo, fnorm(
            dmuc(apply_I(1, v)) - 1j * dmuc(v)
        ) / (1.0 + fnorm(dmuc(v))))

        # matrix recombination muC = mu2 + i mu3, exact
        muc = m0s["muC"]
        res_recomb = max(res_recomb, fnorm(
            muc - moment("mu2", pt) - 1j * moment("mu3", pt)
        ) / (1.0 + fnorm(muc)))

    for _ in range(max(1, trials // 5)):
        trunc = _rand_trunc(rng, max_dim=4)
        pt = sample_level(trunc, rng)
        m1 = moment("mu1", pt)
        target = -0.5j * trunc.k2 * np.eye(trunc.p)
        res_level = max(res_level, fnorm(m1 - target) / trunc.k2)

    return [
        CheckResult("moment", "pairing_oracle", res_pair, 1e-11, trials),
        CheckResult("moment", "ad_equivariance", res_equiv, 1e-10, trials),
        CheckResult("moment", "muC_holomorphy", res_holo, 1e-12, trials),
        CheckResult("moment", "muC_recombination", res_recomb, 1e-14, trials),
        CheckResult("moment", "level_value", res_level, 1e-9, max(1, trials // 5)),
    ]


# ---------------------------------------------------------------------------
# reduction suite
# ---------------------------------------------------------------------------

def suite_reduction(trials: int, seed: int) -> list[CheckResult]:
    rng = make_rng(seed)
    res_idem = 0.0
    res_orth = 0.0
    res_df = 0.0
    res_orbit_fix = 0.0
    res_istab = 0.0
    res_slice = 0.0
    res_equiv = 0.0
    res_inter = 0.0
    res_polar = 0.0
    res_repind = 0.0
    res_kernel = 0.0

    n_slice = max(1, trials // 3)
    for _ in range(trials):
        trunc = _rand_trunc(rng, max_dim=4)
        pt = sample_level(trunc, rng)
        basis = slice_basis(pt)
        v = random_tangent(trunc, rng)
        nv = np.sqrt(metric_g(v, v)) + 1.0

        po = basis.orbit(v)
        pl = basis.level(v)
        ph = basis.horizontal(v)
        for d in (basis.orbit(po) - po, basis.level(pl) - pl,
                  basis.horizontal(ph) - ph):
            res_idem = max(res_idem, fnorm(d.Z) / nv, fnorm(d.T) / nv)
        b = random_skew(trunc.p, rng)
        orbit_dir = TangentPair(-pt.x @ b, -pt.X @ b)
        res_orth = max(res_orth, abs(metric_g(ph, orbit_dir))
                       / (nv * (1.0 + np.sqrt(metric_g(orbit_dir, orbit_dir)))))
        # orbit vectors are fixed by the orbit and level projectors
        for proj in (basis.orbit, basis.level):
            rec = proj(orbit_dir) - orbit_dir
            res_orbit_fix = max(res_orbit_fix, fnorm(rec.Z) / nv, fnorm(rec.T) / nv)

        # level projection lands in ker dF
        a_c = dagger(pt.X) @ pl.Z + dagger(pl.T) @ pt.x
        b_c = (dagger(pt.x) @ pl.Z + dagger(pl.Z) @ pt.x
               - dagger(pt.X) @ pl.T - dagger(pl.T) @ pt.X)
        res_df = max(res_df, (fnorm(a_c) + fnorm(b_c)) / nv)

        # horizontal slice is I-stable
        for j in (1, 2, 3):
            ih = apply_I(j, ph)
            res_istab = max(res_istab, fnorm((basis.horizontal(ih) - ih).Z) / nv)

        # project1 equivariance and the intersection property
        u = random_unitary(trunc.p, rng)
        pt_u = act1(u, pt)
        lhs = project1(pt_u).point
        rhs = act1(u, project1(pt).point)
        res_equiv = max(res_equiv,
                        fnorm(lhs.x - rhs.x) / (1.0 + fnorm(rhs.x)),
                        fnorm(lhs.X - rhs.X) / (1.0 + fnorm(rhs.X)))

        g0 = random_group_positive(trunc.p, rng)
        pr = project1(act1(g0, pt))
        back = pr.point
        w = np.linalg.solve(dagger(back.x) @ back.x, dagger(back.x) @ pt.x)
        res_inter = max(res_inter, fnorm(dagger(w) @ w - np.eye(trunc.p)))
        res_inter = max(res_inter, fnorm(pt.X - back.X @ w) / (1.0 + fnorm(pt.X)))

        comp = pr.group_part @ g0
        res_polar = max(res_polar,
                        fnorm(dagger(comp) @ comp - np.eye(trunc.p)))

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
            val_u = form(hu, h2u)
            res_repind = max(res_repind, abs(val - val_u) / (1.0 + abs(val)))
        h_orbit = basis.horizontal(orbit_dir)
        res_kernel = max(res_kernel,
                         abs(metric_g(h_orbit, h2)) / nv,
                         abs(omega(1, ph, h_orbit)) / nv)

    for _ in range(n_slice):
        trunc = _rand_trunc(rng, max_dim=4)
        pt = sample_level(trunc, rng)
        basis = slice_basis(pt)
        v = random_tangent(trunc, rng)
        nv = np.sqrt(metric_g(v, v)) + 1.0
        parts = [basis.orbit(v), basis.horizontal(v)]
        parts += [basis.i_orbit(j, v) for j in (1, 2, 3)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        res_slice = max(res_slice,
                        fnorm((total - v).Z) / nv, fnorm((total - v).T) / nv)
        for i in range(5):
            for j in range(i + 1, 5):
                ni = np.sqrt(metric_g(parts[i], parts[i])) + 1.0
                nj = np.sqrt(metric_g(parts[j], parts[j])) + 1.0
                res_slice = max(res_slice,
                                abs(metric_g(parts[i], parts[j])) / (ni * nj))

    return [
        CheckResult("reduction", "projector_idempotence", res_idem, 1e-10, trials),
        CheckResult("reduction", "orbit_horizontal_orthogonality", res_orth, 1e-10, trials),
        CheckResult("reduction", "orbit_vectors_fixed", res_orbit_fix, 1e-10, trials),
        CheckResult("reduction", "level_projection_in_kernel", res_df, 1e-9, trials),
        CheckResult("reduction", "horizontal_I_stability", res_istab, 1e-9, trials),
        CheckResult("reduction", "slice_decomposition", res_slice, 1e-8, n_slice),
        CheckResult("reduction", "project1_equivariance", res_equiv, 1e-9, trials),
        CheckResult("reduction", "orbit_meets_level_in_compact_orbit", res_inter, 1e-8, trials),
        CheckResult("reduction", "polar_uniqueness", res_polar, 1e-9, trials),
        CheckResult("reduction", "reduced_pairing_representative_independence",
                    res_repind, 1e-9, trials),
        CheckResult("reduction", "reduced_pairing_orbit_kernel", res_kernel, 1e-10, trials),
    ]


# ---------------------------------------------------------------------------
# potentials suite
# ---------------------------------------------------------------------------

def suite_potentials(trials: int, seed: int) -> list[CheckResult]:
    rng = make_rng(seed)
    res_k1 = 0.0
    res_k3 = 0.0
    res_inv1 = 0.0
    res_inv3 = 0.0
    res_zero = 0.0
    res_k3zero = 0.0
    res_chain = 0.0
    res_curv = 0.0
    res_k3hat = 0.0
    witness_min = np.inf

    for _ in range(trials):
        trunc = _rand_trunc(rng)
        pt = sample_stable1(trunc, rng)
        routes = pots.evaluate_routes(pt, "k1")
        vals = list(routes.values())
        spread = max(vals) - min(vals)
        res_k1 = max(res_k1, _rel(spread, vals[0]))

        # compact invariance
        u = random_unitary(trunc.p, rng)
        res_inv1 = max(res_inv1, _rel(
            abs(pots.K1_closed(act1(u, pt)) - routes["closed"]), vals[0]))

        # the chain identity: value at pt minus the transport character
        # equals the value at the projected point
        pr = project1(pt)
        lhs = routes["level"] - pots.character_log_term(pr.group_part, trunc.k)
        rhs = pots.quotient_potential(pr.point).value
        res_chain = max(res_chain, _rel(abs(lhs - rhs), rhs))

        # non-invariance witness under a genuinely positive element
        g2 = 2.0 * np.eye(trunc.p)
        witness_min = min(witness_min,
                          abs(pots.K1_closed(act1(g2, pt)) - routes["closed"]))

        pt3 = sample_stable3(trunc, rng)
        k3routes = pots.evaluate_routes(pt3, "k3")
        vals3 = list(k3routes.values())
        res_k3 = max(res_k3, _rel(max(vals3) - min(vals3), vals3[0]))
        u3 = random_unitary(trunc.p, rng)
        res_inv3 = max(res_inv3, _rel(
            abs(pots.K3_spectral(act3(herm_eig(np.zeros((trunc.p, trunc.p))), u3, pt3))
                - k3routes["spectral"]), vals3[0]))

        # zero-section pinning and the vanishing locus
        x_only = ConfigPoint(trunc, pt.x, np.zeros_like(pt.X))
        lam = np.linalg.eigvalsh(dagger(pt.x) @ pt.x)
        logdet = 0.25 * trunc.k2 * float(np.sum(np.log(lam / trunc.k2)))
        res_zero = max(res_zero, abs(pots.K1_closed(x_only) - logdet))
        zero_fiber = project1(x_only).point
        res_k3zero = max(res_k3zero, abs(pots.K3_spectral(zero_fiber)))

        # curvature operator: closed form vs the general tensor
        vv = gaussian_complex(rng, (trunc.q, trunc.p))
        yy = gaussian_complex(rng, (trunc.q, trunc.p))
        d = curvature_op_I1(vv, yy) - curvature_op_I1_via_R(vv, yy)
        res_curv = max(res_curv, fnorm(d) / (1.0 + fnorm(curvature_op_I1(vv, yy))))

        # cotangent form of the third potential: direct vs curvature route
        val_d = pots.K3_hat_cotangent(vv, trunc.k, "direct")
        val_c = pots.K3_hat_cotangent(vv, trunc.k, "curvature")
        res_k3hat = max(res_k3hat, _rel(abs(val_d - val_c), val_d))

    results = [
        CheckResult("potentials", "k1_route_agreement", res_k1, 1e-9, trials),
        CheckResult("potentials", "k3_route_agreement", res_k3, 1e-8, trials),
        CheckResult("potentials", "k1_compact_invariance", res_inv1, 1e-10, trials),
        CheckResult("potentials", "k3_compact_invariance", res_inv3, 1e-10, trials),
        CheckResult("potentials", "zero_section_pinning", res_zero, 1e-12, trials),
        CheckResult("potentials", "k3_vanishing_on_zero_fiber", res_k3zero, 1e-12, trials),
        CheckResult("potentials", "quotient_potential_chain", res_chain, 1e-10, trials),
        CheckResult("potentials", "curvature_operator_identity", res_curv, 1e-12, trials),
        CheckResult("potentials", "k3hat_route_agreement", res_k3hat, 1e-11, trials),
    ]
    # non-invariance is a strict inequality: report the margin as 1/witness
    results.append(CheckResult(
        "potentials", "complexified_noninvariance_witness",
        0.0 if witness_min > 1e-6 else 1.0, 0.5, trials,
        note=f"min |delta K1| = {witness_min:.3e} under g = 2 Id"))
    return results


# ---------------------------------------------------------------------------
# maps suite
# ---------------------------------------------------------------------------

def suite_maps(trials: int, seed: int) -> list[CheckResult]:
    rng = make_rng(seed)
    res_rt1 = 0.0
    res_rt3 = 0.0
    res_fib1 = 0.0
    res_fib3 = 0.0
    res_z = 0.0
    res_ang = 0.0
    dec_min = np.inf

    for _ in range(trials):
        trunc = _rand_trunc(rng)
        k = trunc.k

        cp = sample_cotangent(trunc, rng)
        back = psi1(psi1_section(cp, k))
        res_rt1 = max(res_rt1, projector_distance(cp.P, back.P),
                      fnorm(cp.eta - back.eta) / (1.0 + fnorm(cp.eta)))

        pair = sample_orbit_pair(trunc, rng)
        sec = psi3_section(pair, k)
        pair_back, z = psi3(sec)
        res_rt3 = max(res_rt3, projector_distance(pair.P, pair_back.P),
                      projector_distance(pair.Q, pair_back.Q))
        dec_min = min(dec_min, pair.transversality())

        res_z = max(res_z, fnorm(z @ z - 1j * trunc.k2 * z) / trunc.k2 ** 2)

        # fiber constancy
        pt1 = sample_stable1(trunc, rng)
        img = psi1(pt1)
        g = random_group_positive(trunc.p, rng) @ random_unitary(trunc.p, rng)
        img_g = psi1(act1(g, pt1))
        res_fib1 = max(res_fib1, projector_distance(img.P, img_g.P),
                       fnorm(img.eta - img_g.eta) / (1.0 + fnorm(img.eta)))

        pt3 = sample_stable3(trunc, rng)
        pair0, _ = psi3(pt3)
        h = random_hermitian_ball(trunc.p, rng, radius=1.0)
        u = random_unitary(trunc.p, rng)
        pair_h, _ = psi3(act3(herm_eig(h), u, pt3))
        res_fib3 = max(res_fib3, projector_distance(pair0.P, pair_h.P),
                       projector_distance(pair0.Q, pair_h.Q))

        # angle invariance under a common ambient unitary
        w = random_unitary(trunc.n, rng)
        conj_pair = OrbitPair(Subspace(w @ pair.P.frame), Subspace(w @ pair.Q.frame))
        t0 = characteristic_angles(pair)
        t1 = characteristic_angles(conj_pair)
        res_ang = max(res_ang, float(np.max(np.abs(t0 - t1))) if t0.size else 0.0)

    return [
        CheckResult("maps", "psi1_round_trip", res_rt1, 1e-10, trials),
        CheckResult("maps", "psi3_round_trip", res_rt3, 1e-10, trials),
        CheckResult("maps", "psi1_fiber_constancy", res_fib1, 1e-9, trials),
        CheckResult("maps", "psi3_fiber_constancy", res_fib3, 1e-9, trials),
        CheckResult("maps", "z_spectral_structure", res_z, 1e-9, trials),
        CheckResult("maps", "angle_unitary_invariance", res_ang, 1e-10, trials),
        CheckResult("maps", "pair_decomposition_margin",
                    0.0 if dec_min > 1e-6 else 1.0, 0.5, trials,
                    note=f"min stacked sigma_min = {dec_min:.3e}"),
    ]


# ---------------------------------------------------------------------------
# ddc suite: finite-difference potential checks
# ---------------------------------------------------------------------------

def _mixed_second(f: Callable[[TangentPair], float], a: TangentPair,
                  b: TangentPair, step: float) -> float:
    return (f(step * a + step * b) - f(step * a - step * b)
            - f(-1.0 * step * a + step * b) + f(-1.0 * step * a - step * b)) \
        / (4.0 * step * step)


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
        return ConfigPoint(pt0.trunc, x, y.conj())

    return section


def suite_ddc(trials: int, seed: int) -> list[CheckResult]:
    rng = make_rng(seed)
    step_flat = 1e-4
    step_red = 1e-3
    res_flat = 0.0
    res_red = 0.0

    for _ in range(trials):
        trunc = _rand_trunc(rng, max_dim=3)
        pt = _rand_point(trunc, rng)

        def kappa(w: TangentPair) -> float:
            return flat_potential_K(ConfigPoint(trunc, pt.x + w.Z, pt.X + w.T))

        # one coordinate 2-plane and one random 2-plane per trial
        m = trunc.n * trunc.p
        iz = int(rng.integers(0, 2 * m))
        it = int(rng.integers(0, 2 * m))
        basis = np.zeros(2 * m)
        basis[iz] = 1.0
        zc = (basis[:m] + 1j * basis[m:]).reshape(trunc.n, trunc.p)
        basis[:] = 0.0
        basis[it] = 1.0
        tc = (basis[:m] + 1j * basis[m:]).reshape(trunc.n, trunc.p)
        zero = np.zeros_like(zc)
        pairs = [(TangentPair(zc, zero), TangentPair(zero, tc)),
                 (random_tangent(trunc, rng), random_tangent(trunc, rng))]
        for u, v in pairs:
            nu = np.sqrt(metric_g(u, u)) or 1.0
            nv = np.sqrt(metric_g(v, v)) or 1.0
            u = (1.0 / nu) * u
            v = (1.0 / nv) * v
            for j in (1, 2, 3):
                lhs = _ddc(kappa, j, u, v, step_flat)
                rhs = omega(j, u, v)
                res_flat = max(res_flat, abs(lhs - rhs) / max(1.0, abs(rhs)))

    n_red = max(1, trials // 5)
    for _ in range(n_red):
        trunc = _rand_trunc(rng, max_dim=3)
        pt = sample_level(trunc, rng)
        section = _holomorphic_stable1_chart(pt)
        basis = slice_basis(pt)

        def kappa1(w: TangentPair) -> float:
            return pots.K1_closed(section(w))

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
            lhs = _ddc(kappa1, 1, u, v, step_red)
            res_red = max(res_red, abs(lhs - rhs) / abs(rhs))
            break

    return [
        CheckResult("ddc", "flat_potential_reproduces_omegas", res_flat,
                    1e-5, trials),
        CheckResult("ddc", "reduced_ddc_matches_reduced_omega1", res_red,
                    1e-3, n_red),
    ]


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
    results: list[CheckResult] = []
    for i, name in enumerate(names):
        results.extend(run_suite(name, trials, seed + 1000 * i))
    return results, all(r.passed for r in results)
