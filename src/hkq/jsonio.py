"""JSON serialization of matrices, configuration points and subspace pairs.

All complex data is stored as split re/im row-major 2-d arrays (no complex
literals), with numbers written by `float.__repr__`: the shortest decimal
form that reloads exactly (at most 17 significant digits, signed zeros
kept).  A file is one compact line (no indentation, no spaces after
separators) with sorted keys and a trailing newline, so identical inputs
give byte-identical files.  The compact layout lets `json.dumps` run its C
encoder; any `indent` switches it to the pure-Python encoder, which takes
about twice as long.  Both encoders write numbers with `float.__repr__`, so
the layout changes no number's text, and files in the older indented
layout still load (JSON ignores whitespace).  What the C encoder still
spends goes mostly to `float.__repr__` itself, the floor for
shortest-decimal, reload-exact text.

Schemas:

  MatrixFile   {"rows": r, "cols": c, "re": [[...]], "im": [[...]]}
  PointFile    {"p": p, "q": q, "k": k, "x": MatrixFile, "X": MatrixFile,
                "meta": {...}?}
  PairFile     {"p": p, "q": q, "P": MatrixFile, "Q": MatrixFile, "k": k?}
  CotangentFile{"p": p, "q": q, "k": k, "P": MatrixFile, "eta": MatrixFile}

Values are checked on load, not coerced: p, q, rows and cols must be JSON
integers (not booleans), k a finite JSON number, and the re/im arrays must
come out of `np.asarray` with a numeric dtype (strings, booleans alone and
ragged rows are refused).  numpy turns a boolean mixed with numbers in one
array into 1 or 0, so an array that holds an exact 0 or 1 also has its
entries' Python types scanned for `bool`; arrays without one, such as
every sampled or projected point, skip that scan, which costs about 0.3 ms
per 128 x 64 array.

Unknown keys are ignored on load.  Pair files of the older layout also
held "z": z = i(x + X)(x* - X*), which is i k^2 times the projection onto P
along Q and so fixed by P, Q and k; that key is ignored on load and no
longer written.  Pair frames are validated against orthonormality on load:
drift up to config.FRAME_TOL (1 + d) is accepted silently, up to
1e-6 (1 + d) re-orthonormalized with a warning, beyond that rejected.
"""

from __future__ import annotations

import json
import sys
import warnings
from itertools import chain
from pathlib import Path

import numpy as np

from .config import FRAME_TOL
from .errors import FileFormatError
from .grassmann import CotangentPoint, OrbitPair, Subspace
from .hkspace import ConfigPoint, Truncation
from .matcore import dagger, fnorm, orthonormal_range

__all__ = [
    "load_cotangent",
    "load_matrix",
    "load_pair",
    "load_point",
    "matrix_from_obj",
    "matrix_to_obj",
    "save_cotangent",
    "save_matrix",
    "save_pair",
    "save_point",
]


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_obj(obj, name: str = "matrix") -> np.ndarray:
    try:
        rows, cols = obj["rows"], obj["cols"]
        re, im = np.asarray(obj["re"]), np.asarray(obj["im"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{name}: malformed matrix object ({exc})") from exc
    if type(rows) is not int or type(cols) is not int:
        raise FileFormatError(
            f"{name}: rows and cols must be integers, got {rows!r}, {cols!r}")
    if re.dtype.kind not in "iuf" or im.dtype.kind not in "iuf":
        raise FileFormatError(
            f"{name}: re/im entries must be numbers, got arrays of "
            f"dtype {re.dtype}/{im.dtype}"
        )
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise FileFormatError(
            f"{name}: array shapes {re.shape}/{im.shape} do not match "
            f"declared {rows} x {cols}"
        )
    for part, values in (("re", re), ("im", im)):
        # a boolean among numbers comes out of np.asarray as 1 or 0, so only
        # an array holding an exact 0 or 1 needs its entries' types scanned
        if ((values == 0) | (values == 1)).any() and bool in set(
                map(type, chain.from_iterable(obj[part]))):
            raise FileFormatError(
                f"{name}: re/im entries must be numbers, got a boolean")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise FileFormatError(f"{name}: non-finite entries")
    m = np.empty((rows, cols), dtype=np.complex128)
    m.real, m.imag = re, im  # not re + 1j*im, which drops the sign of -0.0
    return m


def _write(path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    Path(path).write_text(text)


def _read(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top-level object expected")
    return obj


def _header(obj: dict, path, k_required: bool = True):
    """p, q and k of a point, pair or cotangent file, checked, not coerced:
    p and q JSON integers, k a finite JSON number (None when the key is
    absent and not required)."""
    for key in ("p", "q", "k") if k_required else ("p", "q"):
        if key not in obj:
            raise FileFormatError(f"{path}: missing {key}")
    p, q = obj["p"], obj["q"]
    if type(p) is not int or type(q) is not int:
        raise FileFormatError(
            f"{path}: p and q must be integers, got {p!r}, {q!r}")
    if "k" not in obj:
        return p, q, None
    k = obj["k"]
    if type(k) not in (int, float):
        raise FileFormatError(f"{path}: k must be a number, got {k!r}")
    if not abs(k) <= sys.float_info.max:  # nan, +-inf, or an int past float range
        raise FileFormatError(f"{path}: k must be finite, got {k}")
    return p, q, float(k)


def save_matrix(path, m: np.ndarray) -> None:
    _write(path, matrix_to_obj(m))


def load_matrix(path) -> np.ndarray:
    return matrix_from_obj(_read(path), str(path))


def save_point(path, pt: ConfigPoint, meta: dict | None = None) -> None:
    obj = {
        "p": pt.trunc.p,
        "q": pt.trunc.q,
        "k": pt.trunc.k,
        "x": matrix_to_obj(pt.x),
        "X": matrix_to_obj(pt.X),
    }
    if meta:
        obj["meta"] = meta
    _write(path, obj)


def load_point(path) -> ConfigPoint:
    obj = _read(path)
    try:
        trunc = Truncation(*_header(obj, path))
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad p/q/k ({exc})") from exc
    x = matrix_from_obj(obj.get("x"), f"{path}:x")
    X = matrix_from_obj(obj.get("X"), f"{path}:X")
    if x.shape != (trunc.n, trunc.p) or X.shape != (trunc.n, trunc.p):
        raise FileFormatError(
            f"{path}: matrices must be {trunc.n} x {trunc.p}, "
            f"got {x.shape} and {X.shape}"
        )
    return ConfigPoint(trunc, x, X)


def _frame_from_obj(obj, name: str, n: int, d: int) -> Subspace:
    f = matrix_from_obj(obj, name)
    if f.shape != (n, d):
        raise FileFormatError(f"{name}: expected {n} x {d}, got {f.shape}")
    err = fnorm(dagger(f) @ f - np.eye(d))
    if err <= FRAME_TOL * (1.0 + d):
        return Subspace(f)
    if err <= 1e-6 * (1.0 + d):
        warnings.warn(
            f"{name}: frame drifted from orthonormality ({err:.2e}); "
            "re-orthonormalizing",
            stacklevel=3,
        )
        return Subspace(orthonormal_range(f))
    raise FileFormatError(
        f"{name}: frame is not orthonormal (||F*F - Id|| = {err:.2e})"
    )


def save_pair(path, pair: OrbitPair, k: float | None = None) -> None:
    obj = {
        "p": pair.P.dim,
        "q": pair.Q.dim,
        "P": matrix_to_obj(pair.P.frame),
        "Q": matrix_to_obj(pair.Q.frame),
    }
    if k is not None:
        obj["k"] = float(k)
    _write(path, obj)


def load_pair(path) -> tuple[OrbitPair, float | None]:
    obj = _read(path)
    p, q, k = _header(obj, path, k_required=False)
    n = p + q
    P = _frame_from_obj(obj.get("P"), f"{path}:P", n, p)
    Q = _frame_from_obj(obj.get("Q"), f"{path}:Q", n, q)
    return OrbitPair(P, Q), k


def save_cotangent(path, cp: CotangentPoint, k: float) -> None:
    n, p = cp.P.frame.shape
    _write(path, {
        "p": p,
        "q": n - p,
        "k": float(k),
        "P": matrix_to_obj(cp.P.frame),
        "eta": matrix_to_obj(cp.eta),
    })


def load_cotangent(path) -> tuple[CotangentPoint, float]:
    obj = _read(path)
    p, q, k = _header(obj, path)
    n = p + q
    P = _frame_from_obj(obj.get("P"), f"{path}:P", n, p)
    eta = matrix_from_obj(obj.get("eta"), f"{path}:eta")
    if eta.shape != (n, n):
        raise FileFormatError(f"{path}:eta must be {n} x {n}, got {eta.shape}")
    return CotangentPoint(P, eta), k
