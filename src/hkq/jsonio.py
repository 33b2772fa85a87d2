"""JSON files of configuration points, subspace pairs and cotangent data.

No file holds a bare matrix: each matrix is a MatrixFile object inside a
point, pair or cotangent file (matrix_to_obj, matrix_from_obj).  A matrix
is stored as the base64 text of its entries' bytes: row-major,
little-endian complex128 (real then imaginary part of each entry, 16
bytes per entry), whatever the byte order of the host.  Every value
reloads bit for bit, signed zeros, subnormals and the largest finite
double included.  The header (p, q, k, meta) stays readable JSON.  A file
is one compact line (no indentation, no spaces after separators) with
sorted keys and a trailing newline, so identical inputs give
byte-identical files; files in an indented layout still load (JSON
ignores whitespace).

Bytes, not decimal text: writing every entry through `float.__repr__` and
parsing it back was most of a CLI round trip.  On a 64 x 64 point (x and
X each 128 x 64), on one core of a 2-vCPU Intel Xeon VM, best of 15 in
each of three alternating processes, saving takes 1.3-1.4 ms as bytes
against 19.4-19.7 ms as text, loading 1.3-1.4 ms against 9.4-17 ms, and
the file is 350 kB instead of 662 kB.  The writer emits each base64
payload as it is and passes only the rest through json.dumps; on the
same point and VM (best of 15 per round, 3-5 rounds in each of five
alternating processes per writer) that halved saving, from 1.7-3.4 ms to
0.8-1.8 ms per round.

A file is rewritten in place: the writer opens its target without O_TRUNC,
writes the text over the old bytes through one UTF-8 text writer, and then
cuts a regular file to the text's length.  Truncating on open made ext4
free the file's blocks, which the write that follows had to allocate
again: on a 2-vCPU VM whose root is ext4 mounted with `discard` (median of
300 rewrites), rewriting a 22 kB / 350 kB file took 129 / 400 us that way
and 15 / 46 us in place.  A temporary file renamed over the target cost
about as much (ext4 treats a rename over a file as a truncation), and
unlinking before creating turns a symlinked output into a plain file and
drops the file's mode.  In place, an output keeps its inode, its mode and
its links.  A crash between the last write and the cut leaves the new
text followed by the old tail: JSON with extra data, which every loader
refuses.  A crash between two writes leaves the start of the new text
over the rest of the old file, which loads only where both files have
the same layout past the break (then as a mix of the two).  A target
that is not a regular file (/dev/null, a pipe) is written but not cut:
ftruncate refuses it (EINVAL), and it holds no old tail.  Files are read
as UTF-8, the encoding RFC 8259 requires; other bytes are refused as a
FileFormatError that names the file.

Schemas:

  MatrixFile   {"rows": r, "cols": c, "c16": "<base64 of 16 r c bytes>"}
  PointFile    {"p": p, "q": q, "k": k, "x": MatrixFile, "X": MatrixFile,
                "meta": {...}?}
  PairFile     {"p": p, "q": q, "P": MatrixFile, "Q": MatrixFile, "k": k?}
  CotangentFile{"p": p, "q": q, "k": k, "P": MatrixFile, "eta": MatrixFile}

A cotangent file's "eta" is the n x p fiber V of eta = F_P V*
(grassmann.CotangentPoint); the older n x n eta is refused.

Values are checked on load, not coerced: p, q, rows and cols must be JSON
integers (not booleans; rows and cols non-negative), k a finite JSON
number, and c16 a string of strict base64 (no characters outside the
alphabet, correct padding) that decodes to exactly 16 rows cols bytes of
finite entries.  A matrix object of the older text layout, split "re" and
"im" lists of decimal numbers, is refused: that layout is no longer read,
and such files are regenerated from their seed (`hkq sample --seed ...`,
then `project` or `map`).

A pair is held in memory as P and Q^perp (grassmann.OrbitPair); the file
keeps Q, n x q, which save_pair writes as complement_frame(Q^perp), the
last q columns of a complete QR of the Q^perp frame, and load_pair turns
back into Q^perp by the same function.  The frame of Q read from a file
is kept with the pair and written back as it is.  psi3's frames of P and
Q^perp are the Q factors of the thin QRs of x + X and x - X, as the QR
returns them, so the P of a pair file written by `map --which psi3` is the
first.

Unknown keys are ignored on load.  Pair files of the older layout also
held "z": z = i(x + X)(x* - X*), which is i k^2 times the projection onto P
along Q and so fixed by P, Q and k; that key is ignored on load and no
longer written.  Pair and cotangent frames are validated against
orthonormality on load by grassmann.Subspace's own rule (_frame_from_obj,
the one check a file's frame gets): drift up to config.FRAME_TOL (1 + d)
is accepted as is, and beyond that the file is refused (FileFormatError).
Every writer saves frames well within it, so a frame is never repaired.
"""

from __future__ import annotations

import base64
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ShapeMismatch
from .grassmann import (CotangentPoint, OrbitPair, Subspace, _orthonormal, _subspace,
                        complement_frame)
from .hkspace import ConfigPoint, Truncation, _point

__all__ = [
    "load_cotangent",
    "load_pair",
    "load_point",
    "matrix_from_obj",
    "matrix_to_obj",
    "save_cotangent",
    "save_pair",
    "save_point",
]


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype="<c16")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "c16": base64.b64encode(m.tobytes()).decode("ascii"),
    }


def matrix_from_obj(obj, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise FileFormatError(
            f"{name}: malformed matrix object ({type(obj).__name__}, not an object)")
    if "re" in obj or "im" in obj:
        raise FileFormatError(
            f"{name}: the re/im text layout is no longer read; "
            "regenerate the file (hkq sample --seed ...)")
    try:
        rows, cols, text = obj["rows"], obj["cols"], obj["c16"]
    except KeyError as exc:
        raise FileFormatError(f"{name}: malformed matrix object (no {exc})") from exc
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise FileFormatError(
            f"{name}: rows and cols must be integers >= 0, got {rows!r}, {cols!r}")
    if type(text) is not str:
        raise FileFormatError(f"{name}: c16 must be a base64 string, got {text!r:.40}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise FileFormatError(f"{name}: c16 is not base64 ({exc})") from exc
    if len(raw) != 16 * rows * cols:
        raise FileFormatError(
            f"{name}: c16 holds {len(raw)} bytes, "
            f"expected 16 x {rows} x {cols} = {16 * rows * cols}")
    m = np.frombuffer(raw, dtype="<c16").reshape(rows, cols).astype(np.complex128)
    if not np.isfinite(m).all():
        raise FileFormatError(f"{name}: non-finite entries")
    return m


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write(path, obj: dict) -> None:
    """Write obj, whose ndarray values are matrices, as the text
    _dumps(obj) + "\n" with each matrix as its matrix_to_obj, byte for
    byte.  Each base64 payload, which JSON needs no escape for, is written
    as it is, and only the rest passes through json.dumps, so no second
    full-size string is built.  Everything is encoded before the file is
    opened, so a value json cannot encode leaves the target as it was: no
    file, or the old file's bytes and inode.  The file is rewritten in
    place, with no O_TRUNC, and a regular file is cut to the text's length
    at the end (module docstring: the costs, and what a crash leaves)."""
    pieces, sep = ["{"], ""
    for key in sorted(obj):
        value = obj[key]
        pieces.append(sep + _dumps(key) + ":")
        if isinstance(value, np.ndarray):
            m = matrix_to_obj(value)
            head, tail = _dumps({**m, "c16": ""}).split('"c16":""', 1)
            pieces += [head, '"c16":"', m["c16"], '"', tail]
        else:
            pieces.append(_dumps(value))
        sep = ","
    pieces.append("}\n")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as out:
        out.writelines(pieces)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            out.truncate()  # flushes, then cuts the old tail at the end of the text


def _read(path) -> dict:
    raw = Path(path).read_bytes()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top-level object expected")
    return obj


def _header(obj: dict, path, k_required: bool = True):
    """p, q and k of a point, pair or cotangent file, checked, not coerced:
    p and q JSON integers >= 1, k a finite JSON number (None when the key
    is absent and not required), and, whenever k is present, (p, q, k) a
    valid Truncation."""
    for key in ("p", "q", "k") if k_required else ("p", "q"):
        if key not in obj:
            raise FileFormatError(f"{path}: missing {key}")
    p, q = obj["p"], obj["q"]
    if type(p) is not int or type(q) is not int:
        raise FileFormatError(
            f"{path}: p and q must be integers, got {p!r}, {q!r}")
    if p < 1 or q < 1:
        raise FileFormatError(f"{path}: bad p/q (need p, q >= 1, got p={p}, q={q})")
    if "k" not in obj:
        return p, q, None
    k = obj["k"]
    if type(k) not in (int, float):
        raise FileFormatError(f"{path}: k must be a number, got {k!r}")
    if not abs(k) <= sys.float_info.max:  # nan, +-inf, or an int past float range
        raise FileFormatError(f"{path}: k must be finite, got {k}")
    try:
        return p, q, Truncation(p, q, float(k)).k
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad p/q/k ({exc})") from exc


def save_point(path, pt: ConfigPoint, meta: dict | None = None) -> None:
    obj = {
        "p": pt.trunc.p,
        "q": pt.trunc.q,
        "k": pt.trunc.k,
        "x": pt.x,
        "X": pt.X,
    }
    if meta:
        obj["meta"] = meta
    _write(path, obj)


def load_point(path) -> ConfigPoint:
    obj = _read(path)
    trunc = Truncation(*_header(obj, path))
    x = matrix_from_obj(obj.get("x"), f"{path}:x")
    X = matrix_from_obj(obj.get("X"), f"{path}:X")
    if x.shape != (trunc.n, trunc.p) or X.shape != (trunc.n, trunc.p):
        raise FileFormatError(
            f"{path}: matrices must be {trunc.n} x {trunc.p}, "
            f"got {x.shape} and {X.shape}"
        )
    return _point(trunc, x, X)  # fresh, checked arrays: no second copy


def _frame_from_obj(obj, name: str, n: int, d: int) -> Subspace:
    f = matrix_from_obj(obj, name)
    if f.shape != (n, d):
        raise FileFormatError(f"{name}: expected {n} x {d}, got {f.shape}")
    try:
        return _subspace(_orthonormal(f))  # a fresh, checked array: no second copy
    except ShapeMismatch as exc:  # the frame is not orthonormal
        raise FileFormatError(f"{name}: {exc}") from exc


def save_pair(path, pair: OrbitPair, k: float | None = None) -> None:
    n, p = pair.P.frame.shape
    obj = {
        "p": p,
        "q": n - p,
        "P": pair.P.frame,
        "Q": complement_frame(pair.Qperp) if pair.Q_file is None else pair.Q_file,
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
    return OrbitPair(P, _subspace(complement_frame(Q)), Q_file=Q.frame), k


def save_cotangent(path, cp: CotangentPoint, k: float) -> None:
    n, p = cp.P.frame.shape
    _write(path, {
        "p": p,
        "q": n - p,
        "k": float(k),
        "P": cp.P.frame,
        "eta": cp.V,
    })


def load_cotangent(path) -> tuple[CotangentPoint, float]:
    obj = _read(path)
    p, q, k = _header(obj, path)
    n = p + q
    P = _frame_from_obj(obj.get("P"), f"{path}:P", n, p)
    v = matrix_from_obj(obj.get("eta"), f"{path}:eta")
    if v.shape != (n, p):  # an older file holds eta itself, n x n
        raise FileFormatError(f"{path}:eta must be the {n} x {p} fiber V, got "
                              f"{v.shape}; regenerate it (hkq map --which psi1)")
    return CotangentPoint(P, v), k
