"""CSV pipeline: parsing policies, provenance, and the surrogate fit."""

import csv
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cendre import ingest
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


def _both_paths(path, target, **options):
    """(numpy's reader first, cell by cell only), both as _outcome."""
    fast = _outcome(path, target, **options)
    with mock.patch.object(ingest, "_read_numeric", return_value=None):
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
    with mock.patch.object(ingest, "_read_numeric", return_value=None):
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
    tracemalloc.start()
    try:
        ds = load_csv(f, "c10")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(ds.design, np.delete(vals, 10, axis=1))
    np.testing.assert_array_equal(ds.response, vals[:, 10])
    assert peak <= 3 * vals.nbytes


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
