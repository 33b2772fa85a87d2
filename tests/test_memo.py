"""The memo of immutable values: what the library derives from a point or a
pair (membership and its factors, psi3's pair, the graph w, the level
projections) is computed once per value and tolerance.

The contract pinned here: the arrays of a point, a pair and every memoized
result are read-only; a caller's array stays the caller's; a second call
on the same value factors nothing and returns the same bits as a fresh
copy; another tol judges again; a refusal is never memoized; and a helper
patched after a value's first evaluation is seen on a fresh copy only.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from conftest import fresh
from hkq import quotient
from hkq.errors import NotInStable1, NotInStable3
from hkq.grassmann import (
    OrbitPair,
    Subspace,
    _graph,
    _m_svd,
    characteristic_angles,
    psi1,
    psi3,
    psi3_section,
)
from hkq.hkspace import ConfigPoint, Truncation
from hkq.moment import (
    _plus_minus,
    _pm_factors,
    _stable1_qr,
    _stable3_frames,
    _x_factors,
    in_stable1,
    in_stable3,
)
from hkq.potentials import K1_closed, K3_spectral, evaluate_routes, quotient_potential
from hkq.quotient import project1, project3
from hkq.sampling import gaussian_complex, make_rng, sample_stable1, sample_stable3

SQRT2 = np.sqrt(2.0)
TOL = 1e-9


def _stable1_point(p=3, q=4, seed=0):
    return sample_stable1(Truncation(p, q, SQRT2), make_rng(seed))


def _stable3_point(p=3, q=4, seed=0):
    return sample_stable3(Truncation(p, q, SQRT2), make_rng(seed))


def _arrays(value):
    """Every array reachable from a result, in a fixed order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, ConfigPoint):
        return [value.x, value.X]
    if isinstance(value, Subspace):
        return [value.frame]
    if isinstance(value, OrbitPair):
        return [value.P.frame, value.Qperp.frame]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    if isinstance(value, dict):
        return [np.float64(value[key]) for key in sorted(value)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value)
                for a in _arrays(getattr(value, f.name))]
    return [np.asarray(value)]


def _same_bits(a, b) -> bool:
    xs, ys = _arrays(a), _arrays(b)
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


# entries that read only memoized work on a second call
STABLE1_ENTRIES = {
    "in_stable1": in_stable1,
    "project1": project1,
    "psi1": psi1,
    "quotient_potential": quotient_potential,
}
STABLE3_ENTRIES = {
    "in_stable3": in_stable3,
    "project3": project3,
    "psi3": psi3,
    "psi3_section": lambda pt: psi3_section(psi3(pt)[0], pt.trunc.k),
}


@pytest.mark.parametrize("structure,name", [
    *(("stable1", name) for name in STABLE1_ENTRIES),
    *(("stable3", name) for name in STABLE3_ENTRIES),
])
def test_a_second_call_factors_nothing(structure, name, lapack_calls):
    # the first call on a fresh copy factors: a sampled stable1 point
    # already holds its x factors, which the sampler took; in_stable3's
    # verdict is certified by the equations' residuals and factors nothing
    entry = {**STABLE1_ENTRIES, **STABLE3_ENTRIES}[name]
    pt = fresh(_stable1_point() if structure == "stable1" else _stable3_point())
    lapack_calls.clear()
    first = entry(pt)
    assert bool(lapack_calls) is (name != "in_stable3")  # whether the first call factors
    lapack_calls.clear()
    second = entry(pt)
    assert dict(lapack_calls) == {}
    assert _same_bits(first, second)
    assert _same_bits(first, entry(fresh(pt)))


WIDE_ENTRIES = {
    "stable1": (sample_stable1, [
        in_stable1, project1, psi1, K1_closed, lambda pt: evaluate_routes(pt, "k1")]),
    "stable3": (sample_stable3, [
        in_stable3, project3, psi3, K3_spectral,
        lambda pt: characteristic_angles(psi3(pt)[0]),
        lambda pt: psi3_section(psi3(pt)[0], pt.trunc.k),
        lambda pt: evaluate_routes(pt, "k3"),
        lambda pt: evaluate_routes(pt, "k3hat")]),
}


@pytest.mark.filterwarnings("ignore::hkq.potentials.IntegralityWarning")
@pytest.mark.parametrize("structure", WIDE_ENTRIES)
@pytest.mark.parametrize("p,q", [(64, 64), (8, 256)])
def test_wide_entries_give_the_same_bits_on_a_repeat_and_on_a_fresh_copy(p, q, structure):
    sample, entries = WIDE_ENTRIES[structure]
    pt = sample(Truncation(p, q, SQRT2), make_rng(p + q))
    for i, entry in enumerate(entries):
        once, twice, other = entry(pt), entry(pt), entry(fresh(pt))
        assert _same_bits(once, twice) and _same_bits(once, other), i
    with pytest.raises(ValueError, match="read-only"):
        pt.x[0, 0] = 0.0


def test_projection_then_routes_projects_once(lapack_calls):
    # project1 then evaluate_routes' level route: one eigh of V'*V' and one
    # p x p SVD, not two of each, and the k1 inputs from the QR of x that
    # project1 judged on (no eigh of x*x, no second QR); what is left is
    # the curvature route's values of V and the closed route's eigvalsh;
    # likewise project3 then the k3 routes build one pair and one graph
    pt = _stable1_point()
    project1(pt)
    lapack_calls.clear()
    evaluate_routes(pt, "k1")
    assert dict(lapack_calls) == {"svd values": 1, "eigvalsh": 1}
    pt3 = _stable3_point()
    project3(pt3)
    lapack_calls.clear()
    evaluate_routes(pt3, "k3")
    assert dict(lapack_calls) == {"svd values": 1, "eigvalsh": 1, "cholesky": 1}
    lapack_calls.clear()
    characteristic_angles(psi3(pt3)[0])
    assert dict(lapack_calls) == {"svd values": 1}  # the angles of w, not w


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (4, 5), (8, 64)])
def test_the_x_factors_the_sampler_stores_are_a_fresh_computation(p, q, seed, lapack_calls):
    # the sampler's QR and singular values of R, stored on its point, are
    # the bits that moment._x_factors takes of a fresh copy, and every
    # first-structure entry that reads them gives the fresh copy's bits
    pt = _stable1_point(p, q, seed)
    lapack_calls.clear()
    stored = _x_factors(pt)
    assert dict(lapack_calls) == {}  # stored by the sampler, not taken here
    assert _same_bits(stored, _x_factors(fresh(pt)))
    for name, entry in {"in_stable1": in_stable1, "project1": project1, "psi1": psi1,
                        "K1_closed": K1_closed,
                        "k1 routes": lambda pt: evaluate_routes(pt, "k1")}.items():
        assert _same_bits(entry(pt), entry(fresh(pt))), name


@pytest.mark.parametrize("tols", [(TOL, 0.999), (0.999, TOL)])
def test_another_tol_judges_again(tols):
    # accepted at 1e-9, refused at 0.999 (sigma_min > 0.999 sigma_max fails),
    # whichever is asked first
    pt1, pt3 = _stable1_point(), _stable3_point()
    for tol in tols:
        assert in_stable1(pt1, tol) == (tol == TOL)
        assert in_stable3(pt3, tol) == (tol == TOL)
        if tol == TOL:
            project1(pt1, tol)
            project3(pt3, tol)
        else:
            with pytest.raises(NotInStable1):
                project1(pt1, tol)
            with pytest.raises(NotInStable3):
                project3(pt3, tol)


def test_values_and_memoized_arrays_are_read_only():
    pt1, pt3 = _stable1_point(), _stable3_point()
    pair, _ = psi3(pt3)
    res1, res3 = project1(pt1), project3(pt3)
    arrays = {
        "pt.x": pt1.x, "pt.X": pt1.X,
        "pair.P.frame": pair.P.frame, "pair.Qperp.frame": pair.Qperp.frame,
        "project1.group_part": res1.group_part, "project1.eigenvalues": res1.eigenvalues,
        "project1.point.x": res1.point.x,
        "project3.eigenvalues": res3.eigenvalues,
        "project3.point.X": res3.point.X,
        "stable1 factor F": _stable1_qr(pt1, TOL, "")[0],
        "stable1 factor R": _stable1_qr(pt1, TOL, "")[1],
        "x factor s": _x_factors(pt1)[2],
        "stable3 frame Q_A": _stable3_frames(pt3, TOL, "")[0],
        "graph w": _graph(pair, TOL),
        "M svd L": _m_svd(pair)[0], "M svd s": _m_svd(pair)[1], "M svd R": _m_svd(pair)[2],
        "x + X": _plus_minus(pt3)[0], "x - X": _plus_minus(pt3)[1],
        "psi1 P": psi1(pt1).P.frame,
        "Subspace(frame)": Subspace(np.eye(3, 2)).frame,
    }
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
        assert not a.flags.writeable, name


def test_every_reader_of_x_plus_minus_X_reads_the_one_memoized_pair():
    # the third-stable verdict, the thin QRs of _pm_factors, the spectral
    # route and psi3 (frames and z) read x +/- X from the point's memo:
    # another stable point's pair planted there makes each of them give
    # that point's bits, and a pair off the equations is refused
    pt, other = _stable3_point(seed=0), _stable3_point(seed=1)
    planted = fresh(pt)
    planted.__dict__["_memo"] = {"x +/- X": _plus_minus(other)}
    assert in_stable3(planted)
    assert _same_bits(_pm_factors(planted), _pm_factors(fresh(other)))
    assert K3_spectral(planted) == K3_spectral(fresh(other)) != K3_spectral(pt)
    assert _same_bits(psi3(planted), psi3(fresh(other)))
    a, c = _plus_minus(pt)
    off = fresh(pt)
    off.__dict__["_memo"] = {"x +/- X": (1.1 * a, c)}
    assert in_stable3(fresh(pt)) and not in_stable3(off)


def test_a_callers_array_stays_the_callers():
    trunc = Truncation(2, 3, SQRT2)
    rng = make_rng(1)
    src = sample_stable1(trunc, rng)
    x, X = src.x.copy(), src.X.copy()
    pt = ConfigPoint(trunc, x, X)
    res = project1(pt)
    want = project1(fresh(pt))
    x[0, 0] += 1.0  # the caller's arrays are still writable
    X[:] = gaussian_complex(rng, X.shape)
    assert np.array_equal(pt.x, src.x) and np.array_equal(pt.X, src.X)
    assert project1(pt) is res and _same_bits(res, want)
    frame = np.eye(5, 2, dtype=complex)
    sub = Subspace(frame)
    frame[0, 0] = 2.0
    assert sub.frame[0, 0] == 1.0


def test_the_memo_is_not_a_field():
    pt = _stable1_point()
    before = repr(pt)
    project1(pt)
    assert repr(pt) == before
    assert [f.name for f in dataclasses.fields(pt)] == ["trunc", "x", "X"]
    pair, _ = psi3(_stable3_point())
    before = repr(pair)
    characteristic_angles(pair)
    assert repr(pair) == before


def test_a_refusal_raises_its_callers_message_every_time():
    pt1 = _stable1_point()
    off1 = ConfigPoint(pt1.trunc, pt1.x, pt1.X + pt1.x)  # X*x != 0
    calls1 = [(psi1, "psi1 requires"), (project1, "project1 requires"),
              (K1_closed, "K1 requires")]
    pt3 = _stable3_point()
    off3 = ConfigPoint(pt3.trunc, pt3.x, 1.1 * pt3.X)  # x*x - X*X != k^2 Id
    calls3 = [(psi3, "psi3 requires"), (K3_spectral, "K3 requires"),
              (lambda pt: evaluate_routes(pt, "k3hat"), "psi3 requires")]
    for pt, calls, error in ((off1, calls1, NotInStable1), (off3, calls3, NotInStable3)):
        for _ in range(2):
            for call, message in calls + calls[::-1]:
                with pytest.raises(error, match=message):
                    call(pt)
    assert not in_stable1(off1) and not in_stable3(off3)


def test_a_helper_patched_later_is_seen_on_a_fresh_copy_only(monkeypatch):
    # the memo contract: a value keeps what it computed; a patch reaches
    # only values evaluated after it
    pt = _stable1_point()
    before = project1(pt)
    body = quotient._project1

    def skewed(pt, f, r, tol):
        res = body(pt, f, r, tol)
        return dataclasses.replace(res, residual=res.residual + 1.0)

    monkeypatch.setattr(quotient, "_project1", skewed)
    assert project1(pt) is before
    assert project1(fresh(pt)).residual == before.residual + 1.0


@pytest.mark.parametrize("p,q", [(1, 1), (4, 5), (8, 64)])
def test_memoized_entries_match_a_fresh_copy_bit_for_bit(p, q):
    pt1, pt3 = _stable1_point(p, q, seed=p + q), _stable3_point(p, q, seed=p * q)
    for pt, entries in ((pt1, STABLE1_ENTRIES), (pt3, STABLE3_ENTRIES)):
        for entry in entries.values():
            once, twice = entry(pt), entry(pt)
            assert _same_bits(once, twice) and _same_bits(once, entry(fresh(pt)))
    for pt, which in ((pt1, "k1"), (pt3, "k3"), (pt3, "k3hat")):
        table = evaluate_routes(pt, which)
        assert table == evaluate_routes(pt, which) == evaluate_routes(fresh(pt), which)
    pair = psi3(pt3)[0]
    assert _same_bits(characteristic_angles(pair), characteristic_angles(fresh(pair)))


def test_threads_sharing_a_point_read_the_same_bits():
    # two threads may both compute a missing entry; each stores the same
    # bits, so every reader sees what a fresh copy gives
    pt = _stable3_point(4, 5, seed=3)
    want = [evaluate_routes(fresh(pt), "k3"), project3(fresh(pt))]
    results, errors = [], []

    def work():
        try:
            for _ in range(20):
                results.append([evaluate_routes(pt, "k3"), project3(pt)])
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert len(results) == 6 * 20
    assert all(_same_bits(got, want) for got in results)
