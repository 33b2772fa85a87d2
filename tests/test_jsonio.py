"""jsonio: byte-identical round trips, the compact one-line layout (every
writer's bytes are json.dumps's text, whatever the meta holds), the
c16 payload (row-major little-endian complex128 bytes in base64) and its
bit-exact reload of extreme numbers, loading of the older indented layout
and of the older pair layout with "z", refusal of the older re/im text
layout and of the older n x n cotangent eta, the n x p fiber of a
cotangent file, the pair-frame check (taken as is within FRAME_TOL,
refused beyond it), and refusal of values that are not of the schema's
type (no coercion on load), of p or q below one with or without k, or of
a payload that is not strict base64, holds the wrong byte count or
non-finite entries.  Also: an existing file is rewritten in place (its
inode, mode and symlink kept, its old tail cut; a pipe written and not
cut), a refused write leaves it as it was, and a file that is not UTF-8
is refused with its path."""

import base64
import json
import os
import re
import stat
import warnings

import numpy as np
import pytest

from hkq import jsonio
from hkq.errors import FileFormatError
from hkq.grassmann import complement_frame, psi1, psi3
from hkq.hkspace import ConfigPoint, Truncation
from hkq.matcore import fnorm
from hkq.sampling import make_rng, random_subspace, sample_point

TRUNC = Truncation(3, 2, float(np.sqrt(2.0)))
META = {"seed": 7, "generator": "stable3", "eps": 0.3, "source": "a, b: c.json"}


@pytest.fixture
def point3():
    return sample_point("stable3", TRUNC, make_rng(7))


@pytest.fixture
def point1():
    return sample_point("stable1", TRUNC, make_rng(8))


def _bytes_after_reload(path, save, load):
    """Bytes of `path`, and of the file `save` writes from what `load` read."""
    first = path.read_bytes()
    again = path.with_name("again-" + path.name)
    save(again, load(path))
    return first, again.read_bytes()


def test_point_with_meta_round_trips_byte_identical(point3, tmp_path):
    path = tmp_path / "pt.json"
    jsonio.save_point(path, point3, meta=META)
    first, second = _bytes_after_reload(
        path, lambda p, pt: jsonio.save_point(p, pt, meta=META), jsonio.load_point)
    assert first == second
    assert json.loads(first)["meta"] == META


def _projector(f):
    return f @ f.conj().T


@pytest.mark.parametrize("with_k", [True, False])
@pytest.mark.parametrize("old_z", [True, False])
def test_pair_round_trip_keeps_P_k_and_the_plane_of_Q(with_k, old_z, point3, tmp_path):
    """A saved pair reloads and re-saves P and k to the same bytes, and Q
    to a frame of the same plane: Q^perp is held as complement_frame of
    the file's Q, and the re-save writes complement_frame of that.  Each
    complement is a complete Householder QR of an orthonormal n-row frame,
    whose projector is off by a small multiple of n eps (Higham, Accuracy
    and Stability, Thm 19.4); the re-saved Q and the reloaded Q^perp are
    each two complements from the saved Q and the pair's Q^perp, so both
    projectors are held to 8 n eps (the worst seen is 1.1 n eps).  With
    `old_z` the file is first given the "z" key of the older layout, which
    the reload ignores and the re-save does not write."""
    pair, z = psi3(point3)
    path = tmp_path / "pair.json"
    jsonio.save_pair(path, pair, k=TRUNC.k if with_k else None)
    saved = path.read_bytes()
    keys = {"p", "q", "P", "Q"} | ({"k"} if with_k else set())
    assert json.loads(saved).keys() == keys
    if old_z:
        obj = json.loads(saved)
        obj["z"] = jsonio.matrix_to_obj(z)
        path.write_text(json.dumps(obj))
    loaded, k_loaded = jsonio.load_pair(path)
    again = tmp_path / "again.json"
    jsonio.save_pair(again, loaded, k=k_loaded)
    first, second = json.loads(saved), json.loads(again.read_bytes())
    assert second.keys() == keys
    assert {key: first[key] for key in keys - {"Q"}} == {key: second[key] for key in keys - {"Q"}}
    bound = 8 * TRUNC.n * np.finfo(np.float64).eps
    q_saved, q_again = (jsonio.matrix_from_obj(obj["Q"], "Q") for obj in (first, second))
    assert fnorm(_projector(q_again) - _projector(q_saved)) <= bound
    assert fnorm(_projector(loaded.Qperp.frame) - _projector(pair.Qperp.frame)) <= bound


@pytest.mark.parametrize("damage", ["not_orthonormal", "q_perp_shape"])
def test_pair_file_with_a_bad_Q_frame_is_refused(damage, point3, tmp_path):
    """Q is read, checked and complemented on load: a frame that is not
    orthonormal, or that has the shape of Q^perp (n x p) instead of Q's
    (n x q), is refused."""
    pair, _ = psi3(point3)
    path = tmp_path / "pair.json"
    jsonio.save_pair(path, pair, k=TRUNC.k)
    obj = json.loads(path.read_text())
    fq = jsonio.matrix_from_obj(obj["Q"])
    bad = fq * (1.0 + 1e-3) if damage == "not_orthonormal" else pair.Qperp.frame
    obj["Q"] = jsonio.matrix_to_obj(bad)
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=":Q"):
        jsonio.load_pair(path)


def test_cotangent_round_trips_byte_identical(point1, tmp_path):
    path = tmp_path / "cot.json"
    jsonio.save_cotangent(path, psi1(point1), TRUNC.k)

    def save(p, loaded):
        cp, k = loaded
        jsonio.save_cotangent(p, cp, k)

    first, second = _bytes_after_reload(path, save, jsonio.load_cotangent)
    assert first == second


def test_cotangent_file_holds_the_n_by_p_fiber(point1, tmp_path):
    path = tmp_path / "cot.json"
    cp = psi1(point1)
    jsonio.save_cotangent(path, cp, TRUNC.k)
    eta = json.loads(path.read_text())["eta"]
    assert (eta["rows"], eta["cols"]) == (TRUNC.n, TRUNC.p)
    loaded, k = jsonio.load_cotangent(path)
    assert k == TRUNC.k
    assert loaded.V.tobytes() == cp.V.tobytes()


@pytest.mark.parametrize("layout", ["older_n_by_n_eta", "n_by_q"])
def test_cotangent_file_with_an_eta_that_is_not_n_by_p_is_refused(layout, point1,
                                                                  tmp_path):
    """The older layout held eta itself, n x n: it is refused, as any other
    shape is, with the verb that regenerates the file."""
    path = tmp_path / "cot.json"
    cp = psi1(point1)
    jsonio.save_cotangent(path, cp, TRUNC.k)
    obj = json.loads(path.read_text())
    bad = cp.eta if layout == "older_n_by_n_eta" else np.zeros((TRUNC.n, TRUNC.q))
    obj["eta"] = jsonio.matrix_to_obj(bad)
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError,
                       match=r"eta must be the 5 x 3 fiber V.*\(hkq map --which psi1\)"):
        jsonio.load_cotangent(path)


def test_same_input_gives_same_bytes(point3, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    jsonio.save_point(a, point3, meta=META)
    jsonio.save_point(b, point3, meta=META)
    assert a.read_bytes() == b.read_bytes()


def test_file_is_one_compact_line(point3, tmp_path):
    path = tmp_path / "pt.json"
    jsonio.save_point(path, point3, meta=META)
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


HOSTILE_META = {"quote": 'say "c16":""', "backslash": "a\\b\\\"c", "c16": "é ü ∞ 𝔾",
                "nested": {"k\u00e9y": ["\u2028", "\t", None, 1.5, True]}}


def _dumped(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize("kind", ["point", "pair", "pair_with_k", "cotangent"])
def test_every_writer_gives_the_json_dumps_text(kind, point1, point3, tmp_path):
    """The writer emits each base64 payload as it is and the rest through
    json.dumps; the file must still be json.dumps of the whole object, with
    a meta of quotes, backslashes and non-ASCII text escaped by json."""
    m = jsonio.matrix_to_obj
    path = tmp_path / "f.json"
    if kind == "point":
        jsonio.save_point(path, point3, meta=HOSTILE_META)
        obj = {"p": 3, "q": 2, "k": TRUNC.k, "x": m(point3.x), "X": m(point3.X),
               "meta": HOSTILE_META}
    elif kind == "cotangent":
        cp = psi1(point1)
        jsonio.save_cotangent(path, cp, TRUNC.k)
        obj = {"p": 3, "q": 2, "k": TRUNC.k, "P": m(cp.P.frame), "eta": m(cp.V)}
    else:
        pair, _ = psi3(point3)
        k = TRUNC.k if kind == "pair_with_k" else None
        jsonio.save_pair(path, pair, k)
        obj = {"p": 3, "q": 2, "P": m(pair.P.frame), "Q": m(complement_frame(pair.Qperp))}
        if k is not None:
            obj["k"] = k
    assert path.read_bytes() == _dumped(obj)
    if kind == "point":
        assert jsonio._read(path)["meta"] == HOSTILE_META


def _bytes_and_inode(path):
    return path.read_bytes(), path.stat().st_ino


def test_a_meta_json_cannot_encode_leaves_no_file(point3, tmp_path):
    """Everything is encoded before the file is opened: the refusal leaves
    no file, and an existing file keeps its bytes and its inode."""
    path = tmp_path / "pt.json"
    with pytest.raises(TypeError):
        jsonio.save_point(path, point3, meta={"seeds": {1, 2}})
    assert not path.exists()
    jsonio.save_point(path, point3, meta=META)
    before = _bytes_and_inode(path)
    with pytest.raises(TypeError):
        jsonio.save_point(path, point3, meta={"seeds": {1, 2}})
    assert _bytes_and_inode(path) == before


@pytest.mark.parametrize("first,second", [(64, 2), (2, 64)])
def test_a_rewrite_keeps_inode_and_mode_and_gives_a_fresh_writes_bytes(first, second,
                                                                       tmp_path):
    """An existing file is rewritten in place: a 2 x 2 point over a 64 x 64
    file (the old tail is cut) and the reverse leave the bytes of a write to
    a new path, in the same inode with the same mode."""
    points = {n: sample_point("stable1", Truncation(n, n, TRUNC.k), make_rng(n))
              for n in (first, second)}
    path, fresh = tmp_path / "pt.json", tmp_path / "fresh.json"
    jsonio.save_point(path, points[first], meta=META)
    path.chmod(0o640)
    inode = path.stat().st_ino
    jsonio.save_point(path, points[second], meta=META)
    jsonio.save_point(fresh, points[second], meta=META)
    assert path.read_bytes() == fresh.read_bytes()
    assert (path.stat().st_ino, stat.S_IMODE(path.stat().st_mode)) == (inode, 0o640)


def test_a_write_through_a_symlink_rewrites_its_target(point1, point3, tmp_path):
    target, link, fresh = (tmp_path / n for n in ("target.json", "link.json", "fresh.json"))
    jsonio.save_point(target, point1)
    link.symlink_to(target)
    jsonio.save_point(link, point3)
    jsonio.save_point(fresh, point3)
    assert link.is_symlink() and link.readlink() == target
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_pipe_is_written_and_not_truncated(point3, tmp_path):
    """ftruncate refuses a pipe (EINVAL): the writer leaves it uncut."""
    fresh = tmp_path / "fresh.json"
    jsonio.save_point(fresh, point3)
    assert len(fresh.read_bytes()) < 4096  # fits the pipe's buffer: no reader needed
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as pipe:
        try:
            jsonio.save_point(f"/dev/fd/{write_end}", point3)
        finally:
            os.close(write_end)
        assert pipe.read() == fresh.read_bytes()


def test_indented_layout_still_loads(point3, tmp_path):
    path = tmp_path / "pt.json"
    jsonio.save_point(path, point3, meta=META)
    path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=1) + "\n")
    assert path.read_text().count("\n") > 1
    loaded = jsonio.load_point(path)
    assert loaded.trunc == point3.trunc
    np.testing.assert_array_equal(loaded.x, point3.x)
    np.testing.assert_array_equal(loaded.X, point3.X)


EXTREME = np.array([5e-324, 1.7976931348623157e308, -0.0, 1e-300,
                    -1.7976931348623157e308, -5e-324])


def _extreme_matrix(rows, cols):
    """rows x cols complex matrix cycling through EXTREME in both parts."""
    size = rows * cols
    m = np.empty((rows, cols), dtype=np.complex128)
    m.real = np.resize(EXTREME, size).reshape(rows, cols)
    m.imag = np.resize(EXTREME[::-1], size).reshape(rows, cols)
    return m


def test_extreme_numbers_reload_exactly_in_a_point_file(tmp_path):
    pt = ConfigPoint(TRUNC, _extreme_matrix(TRUNC.n, TRUNC.p),
                     _extreme_matrix(TRUNC.n, TRUNC.p)[::-1])
    path = tmp_path / "pt.json"
    jsonio.save_point(path, pt)
    loaded = jsonio.load_point(path)
    assert loaded.x.dtype == loaded.X.dtype == np.complex128
    assert loaded.x.tobytes() == pt.x.tobytes()  # bitwise: the sign of -0.0 too
    assert loaded.X.tobytes() == pt.X.tobytes()


def test_c16_is_row_major_little_endian_complex128():
    m = np.array([[1 + 2j, complex(-0.0, 3.0)], [4j, 5.0]])
    obj = jsonio.matrix_to_obj(m.T)  # a Fortran-ordered view is written row-major
    assert obj.keys() == {"rows", "cols", "c16"}
    assert (obj["rows"], obj["cols"]) == (2, 2)
    raw = base64.b64decode(obj["c16"], validate=True)
    parts = np.frombuffer(raw, dtype="<f8")
    np.testing.assert_array_equal(parts, [1.0, 2.0, 0.0, 4.0, -0.0, 3.0, 5.0, 0.0])
    assert np.signbit(parts[4])
    assert obj["c16"].startswith("AAAAAAAA8D8AAAAAAAAAQA")  # 1.0, 2.0 little-endian
    loaded = jsonio.matrix_from_obj(obj)
    assert loaded.tobytes() == np.ascontiguousarray(m.T).tobytes()
    assert loaded.flags.writeable


def test_empty_matrix_round_trips():
    obj = jsonio.matrix_to_obj(np.zeros((0, 3), dtype=complex))
    assert obj == {"rows": 0, "cols": 3, "c16": ""}
    assert jsonio.matrix_from_obj(obj).shape == (0, 3)


class TestFrameCheck:
    N, D = 5, 2

    def _frame(self):
        return random_subspace(self.N, self.D, make_rng(3)).frame

    def test_orthonormal_frame_accepted_silently(self):
        f = self._frame()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sub = jsonio._frame_from_obj(jsonio.matrix_to_obj(f), "F", self.N, self.D)
        np.testing.assert_array_equal(sub.frame, f)

    def test_small_drift_rejected(self):
        # ||F*F - Id|| ~ 3e-8 is past FRAME_TOL (1 + d) = 3e-9: a frame no
        # writer produces is refused, not repaired
        drifted = self._frame() * (1.0 + 1e-8)
        with pytest.raises(FileFormatError, match="F: frame columns not orthonormal"):
            jsonio._frame_from_obj(jsonio.matrix_to_obj(drifted), "F", self.N, self.D)

    def test_drift_within_frame_tol_is_taken_as_is(self):
        drifted = self._frame() * (1.0 + 1e-10)  # ||F*F - Id|| ~ 3e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sub = jsonio._frame_from_obj(jsonio.matrix_to_obj(drifted), "F", self.N, self.D)
        np.testing.assert_array_equal(sub.frame, drifted)

    def test_large_drift_rejected(self):
        drifted = self._frame() * (1.0 + 1e-3)
        with pytest.raises(FileFormatError, match="not orthonormal"):
            jsonio._frame_from_obj(jsonio.matrix_to_obj(drifted), "F", self.N, self.D)

    def test_wrong_shape_rejected(self):
        with pytest.raises(FileFormatError, match="expected 5 x 3"):
            jsonio._frame_from_obj(jsonio.matrix_to_obj(self._frame()), "F", self.N, 3)


LOADERS = {"point": (jsonio.load_point, "x"),
           "pair": (jsonio.load_pair, "P"),
           "cotangent": (jsonio.load_cotangent, "P")}


def _set_top(key, value):
    def change(obj, matrix):
        obj[key] = value
    return change


def _set_in_matrix(key, value):
    def change(obj, matrix):
        obj[matrix][key] = value
    return change


def _set_matrix(value):
    def change(obj, matrix):
        obj[matrix] = value
    return change


def _edit_text(edit):
    """Damage the c16 text of the matrix."""
    def change(obj, matrix):
        obj[matrix]["c16"] = edit(obj[matrix]["c16"])
    return change


def _edit_bytes(edit):
    """Damage the bytes under the c16 text of the matrix, then re-encode them
    as valid base64."""
    def change(obj, matrix):
        raw = base64.b64decode(obj[matrix]["c16"])
        obj[matrix]["c16"] = base64.b64encode(edit(raw)).decode("ascii")
    return change


def _first_part(value, imag=False):
    """Set the real (or imaginary) part of the first entry to value."""
    offset = 8 if imag else 0
    return _edit_bytes(lambda raw: raw[:offset] + np.array(value, "<f8").tobytes()
                       + raw[offset + 8:])


def _negate_shape(obj, matrix):
    # 16 rows cols is unchanged, so only the sign check refuses it
    obj[matrix]["rows"] *= -1
    obj[matrix]["cols"] *= -1


def _to_text_layout(obj, matrix):
    m = jsonio.matrix_from_obj(obj[matrix])
    obj[matrix] = {"rows": m.shape[0], "cols": m.shape[1],
                   "re": m.real.tolist(), "im": m.imag.tolist()}


def _set_entry(value):
    """Rewrite the matrix in the older re/im text layout with its first real
    entry set to value: the loader refuses the layout before reading any
    entry, so a defective entry there gets the same message."""
    def change(obj, matrix):
        _to_text_layout(obj, matrix)
        obj[matrix]["re"][0][0] = value
    return change


NOT_OF_THE_SCHEMA = {
    "p_float": (_set_top("p", 1.9), "p and q must be integers"),
    "p_string": (_set_top("p", "3"), "p and q must be integers"),
    "q_bool": (_set_top("q", True), "p and q must be integers"),
    "k_string": (_set_top("k", "1.4"), "k must be a number"),
    "k_bool": (_set_top("k", True), "k must be a number"),
    "k_null": (_set_top("k", None), "k must be a number"),
    "k_past_float_range": (_set_top("k", 10 ** 400), "k must be finite"),
    "rows_float": (_set_in_matrix("rows", 5.0), "rows and cols must be integers"),
    "rows_string": (_set_in_matrix("rows", "5"), "rows and cols must be integers"),
    "cols_bool": (_set_in_matrix("cols", True), "rows and cols must be integers"),
    "rows_cols_negated": (_negate_shape, "rows and cols must be integers >= 0"),
    "matrix_not_an_object": (_set_matrix([1.0, 2.0]), "malformed matrix object"),
    "c16_missing": (lambda obj, matrix: obj[matrix].pop("c16"), "malformed matrix object"),
    "c16_null": (_set_in_matrix("c16", None), "c16 must be a base64 string"),
    "c16_true": (_set_in_matrix("c16", True), "c16 must be a base64 string"),
    "c16_number": (_set_in_matrix("c16", 1.5), "c16 must be a base64 string"),
    "c16_list": (_set_in_matrix("c16", ["AAAA"]), "c16 must be a base64 string"),
    "c16_not_base64": (_edit_text(lambda t: "*" + t[1:]), "c16 is not base64"),
    "c16_whitespace": (_edit_text(lambda t: t[:8] + "\n" + t[8:]), "c16 is not base64"),
    "c16_non_ascii": (_edit_text(lambda t: t[:4] + "\u00e9" + t[5:]), "c16 is not base64"),
    "c16_bad_padding": (_edit_text(lambda t: t[:-1]), "c16 is not base64"),
    "c16_one_entry_short": (_edit_bytes(lambda raw: raw[:-16]), "c16 holds"),
    "c16_one_entry_long": (_edit_bytes(lambda raw: raw + raw[:16]), "c16 holds"),
    "c16_half_an_entry_long": (_edit_bytes(lambda raw: raw + raw[:8]), "c16 holds"),
    "c16_nan": (_first_part(np.nan), "non-finite"),
    "c16_inf": (_first_part(np.inf, imag=True), "non-finite"),
    "c16_minus_inf": (_first_part(-np.inf), "non-finite"),
    "text_layout": (_to_text_layout, "re/im text layout is no longer read"),
    "re_bools": (_set_in_matrix("re", [[True] * 3] * 5),
                 "re/im text layout is no longer read"),
    "entry_string": (_set_entry("1.5"), "re/im text layout is no longer read"),
    "entry_null": (_set_entry(None), "re/im text layout is no longer read"),
    "entry_true_among_numbers": (_set_entry(True), "re/im text layout is no longer read"),
    "entry_false_among_numbers": (_set_entry(False), "re/im text layout is no longer read"),
}


@pytest.fixture
def files(point3, point1, tmp_path):
    pair, _ = psi3(point3)
    paths = {kind: tmp_path / f"{kind}.json" for kind in LOADERS}
    jsonio.save_point(paths["point"], point3)
    jsonio.save_pair(paths["pair"], pair, k=TRUNC.k)
    jsonio.save_cotangent(paths["cotangent"], psi1(point1), TRUNC.k)
    return paths


@pytest.mark.parametrize("kind", LOADERS)
def test_a_file_that_is_not_utf8_is_refused_with_its_path(kind, tmp_path):
    """RFC 8259 JSON is UTF-8: other bytes are a FileFormatError naming the
    file, not a UnicodeDecodeError."""
    path = tmp_path / f"{kind}.json"
    path.write_bytes(b'{"p": 1, "q": 1, "k": 1.0, "x": \xff}')
    load, _ = LOADERS[kind]
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: not UTF-8"):
        load(path)


@pytest.mark.parametrize("damage", NOT_OF_THE_SCHEMA)
@pytest.mark.parametrize("kind", LOADERS)
def test_values_not_of_the_schema_are_refused(kind, damage, files):
    load, matrix = LOADERS[kind]
    change, message = NOT_OF_THE_SCHEMA[damage]
    path = files[kind]
    obj = json.loads(path.read_text())
    change(obj, matrix)
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=message):
        load(path)


@pytest.mark.parametrize("k", [1e-200, -1e-78, 1e78])
def test_point_file_with_k4_out_of_range_is_refused(k, files):
    """A finite k whose k^4 is not a normal float is refused by
    Truncation, which load_point reports as a format error."""
    obj = json.loads(files["point"].read_text())
    obj["k"] = k
    files["point"].write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=r"bad p/q/k \(k\^4 must be normal"):
        jsonio.load_point(files["point"])


@pytest.mark.parametrize("kind,with_k", [("point", True), ("pair", True),
                                         ("pair", False), ("cotangent", True)])
def test_p_or_q_below_one_is_refused_with_or_without_k(kind, with_k, files):
    """p, q >= 1 holds in every file kind, also in a pair file without k."""
    path = files[kind]
    obj = json.loads(path.read_text())
    obj.update({"p": 0, "q": 3, "P": jsonio.matrix_to_obj(np.zeros((3, 0))),
                "Q": jsonio.matrix_to_obj(np.eye(3))})
    if not with_k:
        del obj["k"]
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=r"bad p/q \(need p, q >= 1") as exc:
        LOADERS[kind][0](path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("k", [0.0, -0.0, 1e-200])
@pytest.mark.parametrize("kind", LOADERS)
def test_k_that_truncation_refuses_is_refused_in_every_file_kind(kind, k, files):
    """Whenever a file holds k, Truncation's rule judges it: a zero k, or
    one whose k^4 underflows, is a format error that names the file."""
    path = files[kind]
    obj = json.loads(path.read_text())
    obj["k"] = k
    path.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=r"bad p/q/k \(k") as exc:
        LOADERS[kind][0](path)
    assert str(exc.value).startswith(f"{path}: ")


def test_file_in_the_text_layout_is_refused(files):
    """A file of the older layout, every matrix as split re/im lists of
    decimal numbers, is refused with a message that names that layout."""
    matrices = {"point": ("x", "X"), "pair": ("P", "Q"), "cotangent": ("P", "eta")}
    for kind, path in files.items():
        obj = json.loads(path.read_text())
        for matrix in matrices[kind]:
            _to_text_layout(obj, matrix)
        path.write_text(json.dumps(obj, sort_keys=True, indent=1))
        with pytest.raises(FileFormatError, match="re/im text layout is no longer read"):
            LOADERS[kind][0](path)


def test_integer_entries_load_as_numbers(files):
    """An integer-valued array is written as complex128 bytes and loads as
    complex numbers."""
    path = files["point"]
    obj = json.loads(path.read_text())
    ints = np.arange(obj["x"]["rows"] * obj["x"]["cols"]).reshape(
        obj["x"]["rows"], obj["x"]["cols"])
    obj["x"] = jsonio.matrix_to_obj(ints)
    path.write_text(json.dumps(obj))
    x = jsonio.load_point(path).x
    assert x.dtype == np.complex128
    assert not x.imag.any()
    np.testing.assert_array_equal(x.real, ints)


@pytest.mark.parametrize("part", ["re", "im"])
def test_matrix_from_obj_refuses_a_boolean_among_numbers(part):
    """A boolean among the numbers can only come in the older re/im text
    layout, which is refused whatever its entries are."""
    m = np.arange(6.0).reshape(3, 2) * (1 + 1j)
    obj = {"rows": 3, "cols": 2, "re": m.real.tolist(), "im": m.imag.tolist()}
    obj[part][2][1] = True
    with pytest.raises(FileFormatError, match="re/im text layout is no longer read"):
        jsonio.matrix_from_obj(obj)
    obj[part][2][1] = 1  # an integer is a number, but the layout is still refused
    with pytest.raises(FileFormatError, match="re/im text layout is no longer read"):
        jsonio.matrix_from_obj(obj)
    jsonio.matrix_from_obj(jsonio.matrix_to_obj(m))


def test_exact_zeros_and_ones_load(files):
    """Entries equal to 0 or 1, and -0.0, reload bit for bit; a `true` in
    the header's meta is not an entry."""
    path = files["point"]
    obj = json.loads(path.read_text())
    x = jsonio.matrix_from_obj(obj["x"])
    x.real[0, :3] = [1, 0.0, -0.0]
    x.imag[1, 0] = 1.0
    obj["x"] = jsonio.matrix_to_obj(x)
    obj["meta"] = {"projected": True}
    path.write_text(json.dumps(obj))
    loaded = jsonio.load_point(path).x
    np.testing.assert_array_equal(loaded.real[0, :3], [1.0, 0.0, -0.0])
    assert np.signbit(loaded.real[0, 2])
    assert loaded.imag[1, 0] == 1.0
    assert loaded.tobytes() == x.tobytes()


@pytest.mark.parametrize("part", ["re", "im"])
def test_matrix_from_obj_refuses_a_non_finite_part(part):
    m = np.arange(6.0).reshape(3, 2) * (1 + 1j)
    for value in (np.nan, np.inf, -np.inf):
        bad = m.copy()
        if part == "re":
            bad.real[2, 1] = value
        else:
            bad.imag[2, 1] = value
        with pytest.raises(FileFormatError, match="non-finite"):
            jsonio.matrix_from_obj(jsonio.matrix_to_obj(bad))
    jsonio.matrix_from_obj(jsonio.matrix_to_obj(m))
