"""jsonio: byte-identical round trips, the compact one-line layout, exact
reload of extreme numbers, loading of the older indented layout and of the
older pair layout with "z", the three regimes of the pair-frame check, and
refusal of values that are not of the schema's type (no coercion on load,
and no boolean among the numbers of an array)."""

import json
import warnings

import numpy as np
import pytest

from hkq import jsonio
from hkq.errors import FileFormatError
from hkq.grassmann import psi1, psi3
from hkq.hkspace import Truncation
from hkq.matcore import dagger
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


@pytest.mark.parametrize("with_k", [True, False])
@pytest.mark.parametrize("old_z", [True, False])
def test_pair_round_trips_byte_identical(with_k, old_z, point3, tmp_path):
    """A saved pair reloads and re-saves to the same bytes.  With `old_z` the
    file is first given the "z" key of the older layout, which the reload
    ignores, so the re-save is the file as saved, without it."""
    pair, z = psi3(point3)
    path = tmp_path / "pair.json"
    jsonio.save_pair(path, pair, k=TRUNC.k if with_k else None)
    saved = path.read_bytes()
    assert json.loads(saved).keys() == {"p", "q", "P", "Q"} | ({"k"} if with_k else set())
    if old_z:
        obj = json.loads(saved)
        obj["z"] = jsonio.matrix_to_obj(z)
        path.write_text(json.dumps(obj))

    def save(p, loaded):
        pair_loaded, k_loaded = loaded
        jsonio.save_pair(p, pair_loaded, k=k_loaded)

    _, again = _bytes_after_reload(path, save, jsonio.load_pair)
    assert again == saved


def test_cotangent_round_trips_byte_identical(point1, tmp_path):
    path = tmp_path / "cot.json"
    jsonio.save_cotangent(path, psi1(point1), TRUNC.k)

    def save(p, loaded):
        cp, k = loaded
        jsonio.save_cotangent(p, cp, k)

    first, second = _bytes_after_reload(path, save, jsonio.load_cotangent)
    assert first == second


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


def test_indented_layout_still_loads(point3, tmp_path):
    path = tmp_path / "pt.json"
    jsonio.save_point(path, point3, meta=META)
    path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=1) + "\n")
    assert path.read_text().count("\n") > 1
    loaded = jsonio.load_point(path)
    assert loaded.trunc == point3.trunc
    np.testing.assert_array_equal(loaded.x, point3.x)
    np.testing.assert_array_equal(loaded.X, point3.X)


def test_extreme_numbers_reload_exactly(tmp_path):
    values = np.array([5e-324, 1.7976931348623157e308, -0.0, 1e-300])
    m = (values + 0j).reshape(2, 2)
    m.imag = values[::-1].reshape(2, 2)
    path = tmp_path / "m.json"
    jsonio.save_matrix(path, m)
    text = path.read_text()
    for literal in ("5e-324", "1.7976931348623157e+308", "-0.0", "1e-300"):
        assert literal in text
    loaded = jsonio.load_matrix(path)
    assert loaded.dtype == np.complex128
    assert loaded.tobytes() == m.tobytes()  # bitwise: the sign of -0.0 too


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

    def test_small_drift_warned_and_reorthonormalized(self):
        f = self._frame()
        drifted = f * (1.0 + 1e-8)  # ||F*F - Id|| ~ 3e-8: above 1e-9 (1+d), below 1e-6 (1+d)
        with pytest.warns(UserWarning, match="re-orthonormalizing"):
            sub = jsonio._frame_from_obj(jsonio.matrix_to_obj(drifted), "F", self.N, self.D)
        g = sub.frame
        assert np.linalg.norm(dagger(g) @ g - np.eye(self.D)) < 1e-14
        np.testing.assert_allclose(g @ dagger(g), f @ dagger(f), atol=1e-12)

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


def _set_entry(value):
    def change(obj, matrix):
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
    "re_bools": (_set_in_matrix("re", [[True] * 3] * 5), "must be numbers"),
    "entry_string": (_set_entry("1.5"), "must be numbers"),
    "entry_null": (_set_entry(None), "must be numbers"),
    "entry_true_among_numbers": (_set_entry(True), "got a boolean"),
    "entry_false_among_numbers": (_set_entry(False), "got a boolean"),
}


@pytest.fixture
def files(point3, point1, tmp_path):
    pair, _ = psi3(point3)
    paths = {kind: tmp_path / f"{kind}.json" for kind in LOADERS}
    jsonio.save_point(paths["point"], point3)
    jsonio.save_pair(paths["pair"], pair, k=TRUNC.k)
    jsonio.save_cotangent(paths["cotangent"], psi1(point1), TRUNC.k)
    return paths


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


def test_integer_entries_load_as_numbers(files):
    path = files["point"]
    obj = json.loads(path.read_text())
    obj["x"]["im"] = [[0] * obj["x"]["cols"]] * obj["x"]["rows"]
    path.write_text(json.dumps(obj))
    x = jsonio.load_point(path).x
    assert x.dtype == np.complex128
    assert not x.imag.any()


@pytest.mark.parametrize("part", ["re", "im"])
def test_matrix_from_obj_refuses_a_boolean_among_numbers(part):
    obj = jsonio.matrix_to_obj(np.arange(6.0).reshape(3, 2) * (1 + 1j))
    obj[part][2][1] = True  # numpy alone would promote it to 1.0
    with pytest.raises(FileFormatError, match="got a boolean"):
        jsonio.matrix_from_obj(obj)
    obj[part][2][1] = 1  # an integer is a number
    jsonio.matrix_from_obj(obj)


def test_exact_zeros_and_ones_load(files):
    """Entries equal to 0 or 1 make the loader scan the entries' types; a
    number passes that scan, and a `true` in a string is not an entry."""
    path = files["point"]
    obj = json.loads(path.read_text())
    obj["x"]["re"][0][:3] = [1, 0.0, -0.0]
    obj["x"]["im"][1][0] = 1.0
    obj["meta"] = {"projected": True}
    path.write_text(json.dumps(obj))
    x = jsonio.load_point(path).x
    np.testing.assert_array_equal(x.real[0, :3], [1.0, 0.0, -0.0])
    assert x.imag[1, 0] == 1.0
