"""CSV pipeline: parsing policies, provenance, and the surrogate fit."""

import csv
import json
import math

import numpy as np
import pytest

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
