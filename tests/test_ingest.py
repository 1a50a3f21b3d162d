"""CSV pipeline: parsing policies, provenance, and the surrogate fit."""

import contextlib
import csv
import gc
import json
import math
import os
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cendre import harness, ingest
from cendre.cli import main
from cendre.errors import ConfigError, DomainError
from cendre.ingest import (
    Dataset,
    _parse_cell,
    load_csv,
    sidecar_path,
    surrogate_truth,
    write_csv,
    write_sidecar,
)
from cendre.numkit import substream


def _write(tmp_path, text, name="data.csv"):
    f = tmp_path / name
    f.write_text(text)
    return f


BASIC = "a,b,y\n1,2,3\n4,5,6\n7,8,10\n-1,0,2\n"


def test_load_basic(tmp_path):
    ds = load_csv(_write(tmp_path, BASIC), "y")
    assert (ds.D, ds.p) == (4, 2)
    assert ds.column_names == ["a", "b"]
    assert ds.response_name == "y"
    np.testing.assert_array_equal(ds.design[0], [1.0, 2.0])
    np.testing.assert_array_equal(ds.response, [3.0, 6.0, 10.0, 2.0])
    assert ds.provenance["log"] == []


def test_target_by_position_and_negative(tmp_path):
    f = _write(tmp_path, BASIC)
    by_name = load_csv(f, "y")
    by_idx = load_csv(f, 2)
    by_neg = load_csv(f, -1)
    for ds in (by_idx, by_neg):
        np.testing.assert_array_equal(ds.response, by_name.response)
        np.testing.assert_array_equal(ds.design, by_name.design)


@pytest.mark.parametrize("column", [True, False])
def test_bool_target_is_no_position(tmp_path, column):
    with pytest.raises(ConfigError):
        load_csv(_write(tmp_path, BASIC), column)


def test_headerless(tmp_path):
    ds = load_csv(_write(tmp_path, "1,2,3\n4,5,6\n7,8,9\n0,1,2\n"), 2, header=False)
    assert ds.column_names == ["col0", "col1"]
    assert ds.response_name == "col2"
    assert ds.D == 4


def test_missing_target(tmp_path):
    f = _write(tmp_path, BASIC)
    with pytest.raises(ConfigError):
        load_csv(f, "z")
    with pytest.raises(ConfigError):
        load_csv(f, 3)


def test_bad_cell_raises_by_default(tmp_path):
    f = _write(tmp_path, "a,b,y\n1,oops,3\n4,5,6\n7,8,9\n0,1,2\n")
    with pytest.raises(DomainError):
        load_csv(f, "y")


def test_drop_non_numeric_column(tmp_path):
    f = _write(tmp_path, "a,b,y\n1,oops,3\n4,5,6\n7,8,9\n0,1,2\n")
    ds = load_csv(f, "y", drop_non_numeric=True)
    assert ds.column_names == ["a"]
    assert ds.D == 4
    assert any("dropped non-numeric column 'b'" in line for line in ds.provenance["log"])


def test_skip_bad_rows(tmp_path):
    f = _write(tmp_path, "a,b,y\n1,2,3\n4,nan,6\n7,8\n9,10,11\n0,1,2\n")
    ds = load_csv(f, "y", skip_bad_rows=True)
    # One row has a non-finite cell, one has the wrong field count.
    assert ds.D == 3
    assert len(ds.provenance["log"]) == 2


def test_unparseable_target_not_droppable(tmp_path):
    # Column drops only apply to features; a bad response cell must
    # surface as a row problem.
    f = _write(tmp_path, "a,y\n1,bad\n2,3\n4,5\n6,7\n")
    with pytest.raises(DomainError):
        load_csv(f, "y", drop_non_numeric=True)
    ds = load_csv(f, "y", drop_non_numeric=True, skip_bad_rows=True)
    assert ds.D == 3


def test_vectorized_parse_keeps_the_cell_by_cell_layout(tmp_path):
    # A non-numeric column sends the body cell by cell; dropped, it leaves
    # the clean file's data, which one vectorized parse reads.  The target
    # sits mid-row, so both paths reorder the columns.
    rng = substream(9)
    vals = rng.standard_normal((40, 3))
    clean = "a,y,b\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                for row in vals)
    noisy = "a,y,b,note\n" + "".join(",".join(repr(float(v)) for v in row) + ",x\n"
                                     for row in vals)
    fast = load_csv(_write(tmp_path, clean), "y")
    slow = load_csv(_write(tmp_path, noisy, "noisy.csv"), "y", drop_non_numeric=True)
    assert slow.provenance["log"] == ["dropped non-numeric column 'note'"]
    np.testing.assert_array_equal(fast.design, vals[:, [0, 2]])
    for name in ("design", "response"):
        a, b = getattr(fast, name), getattr(slow, name)
        np.testing.assert_array_equal(a, b)
        assert a.strides == b.strides
        assert a.flags == b.flags


UNPARSEABLE = ["inf", "nan", "", "abc", '"1,5"']
ACCEPTED = {" 2 ": 2.0, "1_0": 10.0, '"3"': 3.0}
POLICIES = [{}, {"drop_non_numeric": True}, {"skip_bad_rows": True}]


@pytest.mark.parametrize("policy", POLICIES, ids=["default", "drop", "skip"])
@pytest.mark.parametrize("cell", UNPARSEABLE + list(ACCEPTED))
def test_cell_rule_under_each_policy(tmp_path, cell, policy):
    f = _write(tmp_path, f"a,b,y\n1,{cell},3\n4,5,6\n7,8,10\n-1,0,2\n0,1,1\n")
    text = next(csv.reader([cell]))[0] if cell else ""
    if cell in ACCEPTED:
        assert _parse_cell(text) == ACCEPTED[cell]
        ds = load_csv(f, "y", **policy)
        assert ds.design[0, 1] == ACCEPTED[cell]
        assert (ds.D, ds.p, ds.provenance["log"]) == (5, 2, [])
        return
    assert _parse_cell(text) is None
    if not policy:
        with pytest.raises(DomainError, match="non-numeric value in column 'b'"):
            load_csv(f, "y")
        return
    ds = load_csv(f, "y", **policy)
    if "drop_non_numeric" in policy:
        assert (ds.D, ds.column_names) == (5, ["a"])
        assert ds.provenance["log"] == ["dropped non-numeric column 'b'"]
    else:
        assert (ds.D, ds.column_names) == (4, ["a", "b"])
        assert ds.provenance["log"] == ["skipped row with non-numeric value in column 'b'"]
        np.testing.assert_array_equal(ds.response, [6.0, 10.0, 2.0, 1.0])


def _outcome(path, target, **options):
    """What load_csv makes of a file: its error, or every part of the Dataset."""
    try:
        ds = load_csv(path, target, **options)
    except (ConfigError, DomainError) as exc:
        return type(exc), str(exc)
    return [(a.tobytes(), a.shape, a.strides, a.flags)
            for a in (ds.design, ds.response)] + [
        ds.column_names, ds.response_name, ds.provenance]


def _cell_by_cell():
    """Send load_csv down its cell-by-cell path: no numpy reader and no
    parsed copy, which would otherwise serve the body the fast path kept."""
    return mock.patch.object(ingest, "_numeric_body", return_value=None)


def _both_paths(path, target, **options):
    """(numpy's reader first, cell by cell only), both as _outcome."""
    fast = _outcome(path, target, **options)
    with _cell_by_cell():
        slow = _outcome(path, target, **options)
    return fast, slow


@given(st.integers(2, 5).flatmap(lambda width: st.tuples(
           st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=width, max_size=width),
                    min_size=width, max_size=12),
           st.integers(0, width - 1))),
       st.sampled_from(["repr", "%.17g"]), st.sampled_from([",", ";"]), st.booleans())
def test_fast_parse_is_bitwise_the_cell_by_cell_parse(tmp_path_factory, table, fmt,
                                                       delimiter, header):
    rows, target_idx = table
    width = len(rows[0])
    cell = repr if fmt == "repr" else (lambda v: "%.17g" % v)
    names = [f"c{j}" for j in range(width)]
    text = "".join(delimiter.join(cell(v) for v in row) + "\n" for row in rows)
    if header:
        text = delimiter.join(names) + "\n" + text
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_text(text)
    target = names[target_idx] if header else target_idx
    # No cell goes through float() on the fast path.
    with mock.patch.object(ingest, "_parse_cell", side_effect=AssertionError):
        fast = _outcome(path, target, delimiter=delimiter, header=header)
    with _cell_by_cell():
        slow = _outcome(path, target, delimiter=delimiter, header=header)
    assert fast == slow
    vals = np.array(rows, dtype=np.float64)
    order = [j for j in range(width) if j != target_idx] + [target_idx]
    assert fast[0][0] == vals[:, order[:-1]].tobytes()
    assert fast[1][0] == vals[:, target_idx].tobytes()


# Each file is loaded under every policy, with and without its header, on
# both paths: cells that float() and numpy read differently or that are
# not finite; CRLF; blank and whitespace-only lines; a blank line before a
# numeric header, so numpy must start where csv.reader's header ended;
# rows with a field too many or too few, one row or all of them; a
# one-row body, a header-only file and a file with no feature column.
CATALOGUE = {
    "quoted": 'a,b,y\n1,"3",3\n4,5,6\n7,8,10\n-1,0,2\n',
    "quote-then-digit": 'a,b,y\n1,"3"4,3\n4,5,6\n7,8,10\n-1,0,2\n',
    "quoted-comma": 'a,b,y\n1,"1,5",3\n4,5,6\n7,8,10\n-1,0,2\n',
    "underscore": "a,b,y\n1,1_0,3\n4,5,6\n7,8,10\n-1,0,2\n",
    "arabic-indic": "a,b,y\n1,\u0661\u0662,3\n4,5,6\n7,8,10\n-1,0,2\n",
    "spaces": "a,b,y\n1, 2 ,3\n4,5,6\n7,8,10\n-1,0,2\n",
    "infinity": "a,b,y\n1,Infinity,3\n4,5,6\n7,8,10\n-1,0,2\n",
    "overflow": "a,b,y\n1,1e500,3\n4,5,6\n7,8,10\n-1,0,2\n",
    "underflow": "a,b,y\n1,1e-400,3\n4,5,6\n7,8,10\n-1,0,2\n",
    "negative-zero": "a,b,y\n1,-0,3\n4,5,6\n7,8,10\n-1,0,-0\n",
    "crlf": "a,b,y\r\n1,2,3\r\n4,5,6\r\n7,8,10\r\n-1,0,2\r\n",
    "blank-lines": "a,b,y\n\n1,2,3\n4,5,6\n\n\n7,8,10\n-1,0,2\n\n",
    "whitespace-line": "a,b,y\n1,2,3\n  \n4,5,6\n7,8,10\n-1,0,2\n",
    "blank-before-numeric-header": "\n1,2,3\n4,5,6\n7,8,10\n-1,0,2\n0,1,1\n",
    "extra-field": "a,b,y\n1,2,3\n4,5,6,9\n7,8,10\n-1,0,2\n",
    "trailing-delimiter": "a,b,y\n1,2,3,\n4,5,6,\n7,8,10,\n-1,0,2,\n",
    "short-row": "a,b,y\n1,2,3\n4,5\n7,8,10\n-1,0,2\n",
    "every-row-wider": "a,b,y\n1,2,3,4\n4,5,6,7\n7,8,10,1\n-1,0,2,5\n",
    "every-row-narrower": "a,b,c,y\n1,2,3\n4,5,6\n7,8,10\n-1,0,2\n",
    "one-row": "a,y\n1,2\n",
    "header-only": "a,b,y\n",
    "target-only": "y\n1\n2\n1_0\n",
}


@pytest.mark.parametrize("policy", POLICIES, ids=["default", "drop", "skip"])
@pytest.mark.parametrize("name", list(CATALOGUE))
def test_catalogue_loads_the_same_on_both_paths(tmp_path, name, policy):
    f = _write(tmp_path, CATALOGUE[name])
    target = "3" if name == "blank-before-numeric-header" else "y"
    fast, slow = _both_paths(f, target, **policy)
    assert fast == slow
    headerless = _both_paths(f, -1, header=False, **policy)
    assert headerless[0] == headerless[1]


def test_blank_line_before_header_starts_the_body_after_it(tmp_path):
    ds = load_csv(_write(tmp_path, CATALOGUE["blank-before-numeric-header"]), "3")
    np.testing.assert_array_equal(ds.response, [6.0, 10.0, 2.0, 1.0])


def test_header_only_file_has_no_usable_rows(tmp_path):
    f = _write(tmp_path, CATALOGUE["header-only"])
    with pytest.raises(DomainError, match="no usable rows"):
        load_csv(f, "y")


def test_file_without_a_feature_column_is_rejected(tmp_path):
    f = _write(tmp_path, CATALOGUE["target-only"])
    for policy in POLICIES:
        fast, slow = _both_paths(f, "y", **policy)
        assert fast == slow == (DomainError, f"{f}: no numeric feature columns left")
    ds = load_csv(f, "y", add_intercept=True)  # an intercept alone is a design
    assert (ds.D, ds.p, ds.column_names) == (3, 1, ["intercept"])
    np.testing.assert_array_equal(ds.response, [1.0, 2.0, 10.0])


# A UTF-8 byte-order mark, as spreadsheets write into "CSV UTF-8" files,
# is no part of the first cell on either path.
@pytest.mark.parametrize("policy", POLICIES, ids=["default", "drop", "skip"])
def test_byte_order_mark_is_not_part_of_the_header(tmp_path, policy):
    f = tmp_path / "bom.csv"
    f.write_bytes(b"\xef\xbb\xbfy,a,b\n1,2,3\n4,5,6\n7,8,10\n-1,0,2\n")
    fast, slow = _both_paths(f, "y", **policy)
    assert fast == slow
    ds = load_csv(f, "y", **policy)
    assert (ds.column_names, ds.provenance["log"]) == (["a", "b"], [])
    np.testing.assert_array_equal(ds.response, [1.0, 4.0, 7.0, -1.0])


@pytest.mark.parametrize("policy", POLICIES, ids=["default", "drop", "skip"])
def test_byte_order_mark_is_not_part_of_a_headerless_body(tmp_path, policy):
    f = tmp_path / "bom.csv"
    f.write_bytes(b"\xef\xbb\xbf1,2,3\n4,5,6\n7,8,10\n-1,0,2\n")
    fast, slow = _both_paths(f, 0, header=False, **policy)
    assert fast == slow
    ds = load_csv(f, 0, header=False, **policy)
    assert (ds.D, ds.provenance["log"]) == (4, [])
    np.testing.assert_array_equal(ds.response, [1.0, 4.0, 7.0, -1.0])


def test_row_with_an_extra_field_is_still_a_row_error(tmp_path):
    f = _write(tmp_path, CATALOGUE["extra-field"])
    with pytest.raises(DomainError, match="row 3 has 4 fields, expected 3"):
        load_csv(f, "y")


def test_load_csv_peak_memory_is_linear_in_the_numeric_size(tmp_path):
    # The target sits mid-row, so the columns are also reordered, over
    # many blocks of rows.
    vals = substream(13).standard_normal((20_000, 21))
    f = tmp_path / "wide.csv"
    names = ",".join(f"c{j}" for j in range(21))
    np.savetxt(f, vals, fmt="%.17g", delimiter=",", header=names, comments="")
    # The first load parses and writes the parsed copy, the second reads
    # it; both peak at about 1.17 times the numeric size.
    for load in ("parse", "copy"):
        tracemalloc.start()
        try:
            ds = load_csv(f, "c10")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(ds.design, np.delete(vals, 10, axis=1))
        np.testing.assert_array_equal(ds.response, vals[:, 10])
        assert peak <= 1.5 * vals.nbytes, load
    assert ingest._parsed_path(f).is_file()


def test_standardize(tmp_path):
    rng = substream(3)
    lines = ["a,b,y"]
    for _ in range(50):
        a, b = rng.normal(5.0, 2.0), rng.normal(-1.0, 0.5)
        lines.append(f"{a},{b},{a + b}")
    ds = load_csv(_write(tmp_path, "\n".join(lines) + "\n"), "y", standardize=True)
    np.testing.assert_allclose(ds.design.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(ds.design.std(axis=0), 1.0, rtol=1e-12)
    assert any("standardized" in line for line in ds.provenance["log"])


def test_standardize_rejects_constant_column(tmp_path):
    f = _write(tmp_path, "a,b,y\n1,2,3\n1,5,6\n1,8,9\n1,0,1\n")
    with pytest.raises(DomainError):
        load_csv(f, "y", standardize=True)


def test_intercept(tmp_path):
    ds = load_csv(_write(tmp_path, BASIC), "y", add_intercept=True)
    assert ds.column_names[0] == "intercept"
    np.testing.assert_array_equal(ds.design[:, 0], np.ones(4))
    assert ds.p == 3


def test_requires_more_rows_than_features(tmp_path):
    f = _write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
    with pytest.raises(DomainError):
        load_csv(f, "y")
    with pytest.raises(DomainError):
        load_csv(_write(tmp_path, "", "empty.csv"), "y")


def test_semicolon_delimiter(tmp_path):
    ds = load_csv(_write(tmp_path, "a;y\n1;2\n3;4\n5;7\n"), "y", delimiter=";")
    assert ds.D == 3


def test_round_trip(tmp_path):
    rng = substream(5)
    X = rng.standard_normal((30, 3))
    y = rng.standard_normal(30)
    ds = Dataset(design=X, response=y, column_names=["u", "v", "w"],
                 response_name="out", provenance={"source": "synthetic", "log": []})
    f = tmp_path / "echo.csv"
    write_csv(ds, f)
    back = load_csv(f, "out")
    np.testing.assert_array_equal(back.design, X)
    np.testing.assert_array_equal(back.response, y)
    assert back.column_names == ["u", "v", "w"]


def test_surrogate_truth_is_lse(tmp_path):
    rng = substream(7)
    X = rng.standard_normal((100, 4))
    theta = np.array([1.0, -2.0, 0.5, 3.0])
    y = X @ theta + 0.3 * rng.standard_normal(100)
    ds = Dataset(design=X, response=y, column_names=list("abcd"),
                 response_name="y", provenance={"source": "s", "log": []})
    got_theta, sigma = surrogate_truth(ds)
    np.testing.assert_allclose(got_theta, np.linalg.lstsq(X, y, rcond=None)[0],
                               rtol=1e-10)
    resid = y - X @ got_theta
    assert sigma == pytest.approx(math.sqrt(resid @ resid / 100), rel=1e-12)
    _, sigma_u = surrogate_truth(ds, unbiased=True)
    assert sigma_u == pytest.approx(math.sqrt(resid @ resid / 96), rel=1e-12)
    assert sigma_u > sigma


def test_sidecar(tmp_path):
    f = _write(tmp_path, "a,oops,y\n1,x,3\n4,5,6\n7,8,9\n0,1,2\n")
    ds = load_csv(f, "y", drop_non_numeric=True)
    out = write_sidecar(ds, f)
    assert out == sidecar_path(f)
    assert out.name == "data.csv.meta.json"
    doc = json.loads(out.read_text())
    assert doc["rows"] == 4
    assert doc["feature_columns"] == ["a"]
    assert doc["response_column"] == "y"
    assert doc["source"].endswith("data.csv")
    assert any("dropped" in line for line in doc["log"])


# ---------------------------------------------------------------------
# the parsed copy kept next to the CSV
# ---------------------------------------------------------------------

def _numeric_file(tmp_path, name="data.csv", rows=30, seed=31):
    vals = substream(seed).standard_normal((rows, 4))
    f = tmp_path / name
    f.write_text("a,y,b,c\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                      for row in vals))
    return f


def _no_parse():
    """Fail the test if load_csv parses the body instead of reading the copy."""
    return mock.patch.object(ingest, "_read_numeric", side_effect=AssertionError)


def _leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


@pytest.mark.parametrize("target, options", [
    ("y", {}),
    (1, {}),
    (-1, {"header": False}),
    ("y", {"standardize": True, "add_intercept": True}),
    ("y", {"drop_non_numeric": True, "skip_bad_rows": True}),
    ("y", {"delimiter": ";"}),
], ids=["name", "position", "headerless", "standardize-intercept", "policies",
        "semicolon"])
def test_parsed_copy_gives_the_parsed_dataset(tmp_path, target, options):
    f = _numeric_file(tmp_path)
    if options.get("delimiter") == ";":
        f.write_text(f.read_text().replace(",", ";"))
    if not options.get("header", True):
        f.write_text(f.read_text().split("\n", 1)[1])
    miss = _outcome(f, target, **options)
    assert ingest._parsed_path(f).is_file()
    with _no_parse():
        hit = _outcome(f, target, **options)
    assert hit == miss
    with _cell_by_cell():
        assert _outcome(f, target, **options) == hit


def test_parsed_copy_follows_the_file_content(tmp_path):
    f = _numeric_file(tmp_path)
    before = _outcome(f, "y")
    stat = f.stat()
    text = f.read_text()
    # Same size, same timestamps, one digit changed.
    digit = next(i for i, ch in enumerate(text) if ch in "123456789" and i > 10)
    f.write_text(text[:digit] + str(int(text[digit]) % 9 + 1) + text[digit + 1:])
    os.utime(f, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert f.stat().st_size == stat.st_size
    with _cell_by_cell():
        expect = _outcome(f, "y")
    assert _outcome(f, "y") == expect != before
    # The header flag is part of the key: the same bytes read without a
    # header have one row more.
    g = tmp_path / "numeric-header.csv"
    g.write_text("1,2,3\n4,5,6\n7,8,10\n-1,0,2\n0,1,1\n")
    assert load_csv(g, "3").D == 4
    assert load_csv(g, -1, header=False).D == 5
    assert load_csv(g, "3").D == 4


@pytest.mark.parametrize("damage", ["truncated", "flipped", "empty", "npy", "foreign-key",
                                    "float32", "width", "fortran"])
def test_corrupt_parsed_copy_is_ignored_and_rewritten(tmp_path, damage):
    # The last three keep the file's key over a body that is not what the
    # reader gives the file.
    f = _numeric_file(tmp_path)
    expect = _outcome(f, "y")
    cache = ingest._parsed_path(f)
    raw = cache.read_bytes()
    with np.load(cache) as npz:
        key, body = npz["key"].item(), npz["body"]
    if damage == "truncated":
        cache.write_bytes(raw[:len(raw) // 2])
    elif damage == "flipped":  # one bit in the stored body: the zip CRC catches it
        i = len(raw) // 2
        cache.write_bytes(raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:])
    elif damage == "empty":
        cache.write_bytes(b"")
    elif damage == "npy":
        with open(cache, "wb") as fh:
            np.save(fh, np.zeros((30, 4)))
    elif damage == "foreign-key":
        with open(cache, "wb") as fh:
            np.savez(fh, key=np.array("another file"), body=np.zeros((30, 4)))
    elif damage == "float32":
        ingest._store_parsed(cache, key, body.astype(np.float32))
    elif damage == "width":
        ingest._store_parsed(cache, key, np.hstack([body, body[:, :1]]))
    else:  # _store_parsed writes C order only; np.savez keeps the Fortran flag
        with open(cache, "wb") as fh:
            np.savez(fh, key=np.array(key), body=np.asfortranarray(body))
        with np.load(cache) as npz:
            assert not npz["body"].flags.c_contiguous
    with mock.patch.object(ingest, "_read_numeric", wraps=ingest._read_numeric) as parse:
        assert _outcome(f, "y") == expect
    assert parse.call_count == 1
    with _no_parse():
        assert _outcome(f, "y") == expect
    assert _leftovers(tmp_path) == []


def _fail_replace(*args):
    raise OSError(28, "No space left on device")


def _fail_mid_write(zf, name, array):
    with zf.open(name + ".npy", "w") as member:
        member.write(b"\x93NUMPY half an array")
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("module, name, fake", [
    (os, "replace", _fail_replace), (ingest, "_write_member", _fail_mid_write)],
    ids=["replace", "write"])
def test_failed_write_of_the_parsed_copy_is_ignored(tmp_path, monkeypatch, module, name, fake):
    f = _numeric_file(tmp_path)
    with _cell_by_cell():
        expect = _outcome(f, "y")
    monkeypatch.setattr(module, name, fake)
    assert _outcome(f, "y") == expect
    assert not ingest._parsed_path(f).exists()
    assert _leftovers(tmp_path) == []


def test_file_renamed_over_the_path_during_a_load_gets_its_own_copy(tmp_path, monkeypatch):
    # The copy is keyed by the bytes of the handle that is parsed, not by
    # whatever the path names when the key is made.
    f = _numeric_file(tmp_path, seed=31)
    new = _numeric_file(tmp_path, "new.csv", seed=32)
    with _cell_by_cell():
        old_outcome, new_outcome = _outcome(f, "y"), _outcome(new, "y")
    digest = ingest._digest

    def rename_first(raw):
        if new.exists():
            os.replace(new, f)
        return digest(raw)

    monkeypatch.setattr(ingest, "_digest", rename_first)
    # Data and names; the provenance names the path loaded, data.csv.
    assert _outcome(f, "y")[:-1] == old_outcome[:-1]  # the file that was opened
    assert _outcome(f, "y")[:-1] == new_outcome[:-1]
    with _no_parse():
        assert _outcome(f, "y")[:-1] == new_outcome[:-1]


@pytest.mark.parametrize("rewrite", ["same-bytes", "other-bytes"])
def test_file_rewritten_during_the_parse_leaves_no_copy(tmp_path, monkeypatch, rewrite):
    # Rows past the text reader's first buffer are read from the file
    # after the rewrite starts: a writer of the same bytes has written
    # half of them, another has replaced the second half with bytes of
    # the same length.  Neither parse is the parse of the hashed bytes.
    f = _numeric_file(tmp_path, rows=2000)
    text = f.read_bytes()
    half = text.index(b"\n", len(text) // 2) + 1
    after = text if rewrite == "same-bytes" else text[:half] + text[half:].replace(b"1", b"2")
    assert len(after) == len(text)
    with _cell_by_cell():
        expect = _outcome(f, "y")
        f.write_bytes(after)
        expect_after = _outcome(f, "y")
        f.write_bytes(text)
    read_numeric = ingest._read_numeric

    def rewrite_during_parse(*args):
        f.write_bytes(text[:half] if rewrite == "same-bytes" else after)
        try:
            return read_numeric(*args)
        finally:
            f.write_bytes(after)

    monkeypatch.setattr(ingest, "_read_numeric", rewrite_during_parse)
    first = _outcome(f, "y")
    assert first != expect if rewrite == "same-bytes" else first == expect_after
    assert not ingest._parsed_path(f).exists()
    monkeypatch.undo()
    assert _outcome(f, "y") == expect_after
    with _no_parse():
        assert _outcome(f, "y") == expect_after


def test_numpy_version_is_part_of_the_key(tmp_path, monkeypatch):
    # A copy made under another numpy's reader is parsed again.
    f = _numeric_file(tmp_path)
    expect = _outcome(f, "y")
    monkeypatch.setattr(np, "__version__", "0.0.0")
    with pytest.raises(AssertionError), _no_parse():
        _outcome(f, "y")
    assert _outcome(f, "y") == expect
    with _no_parse():
        assert _outcome(f, "y") == expect


def test_cell_by_cell_file_keeps_no_parsed_copy(tmp_path):
    f = _write(tmp_path, "a,oops,y\n1,x,3\n4,5,6\n7,8,9\n0,1,2\n")
    load_csv(f, "y", drop_non_numeric=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_is_parsed_without_a_copy(tmp_path):
    # Hashing a pipe would drain it before the parse.
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(BASIC,), daemon=True)
    writer.start()
    ds = load_csv(fifo, "y")
    writer.join(timeout=10)
    assert not writer.is_alive()
    np.testing.assert_array_equal(ds.response, [3.0, 6.0, 10.0, 2.0])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe.csv"]


def test_parsed_copy_leaves_no_file_open(tmp_path):
    f = _numeric_file(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_csv(f, "y")  # miss, write
        load_csv(f, "y")  # hit
        cache = ingest._parsed_path(f)
        cache.write_bytes(cache.read_bytes()[:100])
        load_csv(f, "y")  # corrupt copy
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_run_on_a_dataset_writes_the_same_bytes_from_the_parsed_copy(tmp_path):
    f = _numeric_file(tmp_path, rows=200)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "method": "ac-rls", "seed": 4, "replicates": 2,
        "dataset": {"path": str(f), "target_column": "y"},
        "censor": {"kind": "constant", "tau": 0.8}}))
    outs = []
    for run in ("miss", "hit"):
        harness._parsed_dataset.cache_clear()  # as in a new process
        out = tmp_path / run
        with _no_parse() if run == "hit" else contextlib.nullcontext():
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    harness._parsed_dataset.cache_clear()
    assert outs[0] == outs[1]
    assert set(outs[0]) == {"results.csv", "summary.json"}
