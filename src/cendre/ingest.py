"""Real-dataset pipeline: CSV to a clean numeric Dataset, plus the
full-data surrogate ground truth used when no true coefficients exist.

Loading is deliberately conservative: every preprocessing action
(dropped column, skipped row, standardization, intercept) is appended
to the provenance log carried by the Dataset, and the log can be
written next to the CSV as a JSON sidecar.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .estimators import _PANEL, batch_lse

__all__ = ["Dataset", "load_csv", "surrogate_truth", "write_csv",
           "write_sidecar", "sidecar_path"]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable numeric regression dataset with a preprocessing log."""

    design: np.ndarray
    response: np.ndarray
    column_names: list[str]
    response_name: str
    provenance: dict

    @property
    def D(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]


def _parse_cell(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _read_numeric(fh, delimiter: str, width: int) -> np.ndarray | None:
    """The rest of fh as a C-ordered (rows, width) array, or None.

    None unless every row has width finite fields that numpy's reader
    parses.  Without usecols the reader rejects a row whose field count
    differs from the first row's, and the shape check ties that to width.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fh, delimiter=delimiter, comments=None, quotechar='"',
                              ndmin=2)
    except (ValueError, TypeError):  # TypeError: a delimiter numpy cannot take
        return None
    if data.size == 0 or data.shape[1] != width or not np.isfinite(data).all():
        return None
    return data


def load_csv(path, target_column, *, header: bool = True, delimiter: str = ",",
             drop_non_numeric: bool = False, add_intercept: bool = False,
             skip_bad_rows: bool = False, standardize: bool = False) -> Dataset:
    """Parse a delimited text file into a Dataset.

    The body goes through numpy's C reader in one pass into one (D, k)
    float64 array, whose target column is then moved last in place, so
    memory stays linear in the numeric size.  numpy accepts a subset of
    what float() accepts and rounds the same way.  Whenever it raises,
    or returns an empty body, a row width other than the header's or a
    non-finite value, the file is read again cell by cell with
    csv.reader and float().  Only that path applies the policies below,
    logs and raises, so both paths give the same arrays, log and errors.

    Parameters
    ----------
    target_column : str or int
        Response column, by name (needs a header) or position.
    header : bool
        First line holds column names; otherwise names are col0..colk.
    drop_non_numeric : bool
        Drop any feature column containing an unparseable cell instead
        of failing; the drop is logged.
    add_intercept : bool
        Prepend a constant-one feature column.
    skip_bad_rows : bool
        Skip (and log) rows that still fail to parse after column
        drops, instead of raising with the row number.
    standardize : bool
        Center each feature column and scale it to unit population
        standard deviation (divided by D, not D - 1); logged, off by
        default.
    """
    path = Path(path)
    log: list[str] = []
    with open(path, newline="") as fh:
        first = next(filter(None, csv.reader(fh, delimiter=delimiter)), None)
        if not header:
            fh.seek(0)
        data = None if first is None else _read_numeric(fh, delimiter, len(first))
        if data is None:
            fh.seek(0)
            rows = [row for row in csv.reader(fh, delimiter=delimiter) if row]
    if first is None:
        raise DomainError(f"{path}: empty file")

    if header:
        names = [c.strip() for c in first]
    else:
        names = [f"col{j}" for j in range(len(first))]
    width = len(names)

    if isinstance(target_column, int):
        if not -width <= target_column < width:
            raise ConfigError(f"target column index {target_column} out of range")
        target_idx = target_column % width
    else:
        try:
            target_idx = names.index(str(target_column))
        except ValueError:
            raise ConfigError(
                f"target column {target_column!r} not found among {names}") from None

    feature_idx = [j for j in range(width) if j != target_idx]
    if data is not None:
        # Put the target column last in place, a block of rows at a time.
        if target_idx != width - 1:
            order = feature_idx + [target_idx]
            for a in range(0, data.shape[0], _PANEL):
                data[a:a + _PANEL] = data[a:a + _PANEL, order]
    else:
        good = []
        for i, row in enumerate(rows[1:] if header else rows):
            line_no = i + 2 if header else i + 1
            if len(row) != width:
                if skip_bad_rows:
                    log.append(f"skipped row {line_no}: expected {width} fields, got {len(row)}")
                    continue
                raise DomainError(f"{path}: row {line_no} has {len(row)} fields, expected {width}")
            good.append(row)

        parsed = [[_parse_cell(c) for c in row] for row in good]
        if drop_non_numeric:
            bad = [j for j in feature_idx
                   if any(vals[j] is None for vals in parsed)]
            for j in bad:
                log.append(f"dropped non-numeric column {names[j]!r}")
            feature_idx = [j for j in feature_idx if j not in bad]
            if bad and not feature_idx:
                raise DomainError(f"{path}: no numeric feature columns left")

        keep_idx = feature_idx + [target_idx]
        clean: list[list[float]] = []
        for vals in parsed:
            picked = [vals[j] for j in keep_idx]
            if any(v is None for v in picked):
                j = keep_idx[picked.index(None)]
                line = f"row with non-numeric value in column {names[j]!r}"
                if skip_bad_rows:
                    log.append(f"skipped {line}")
                    continue
                raise DomainError(f"{path}: {line}")
            clean.append(picked)

        if not clean:
            raise DomainError(f"{path}: no usable rows")
        data = np.asarray(clean, dtype=np.float64)
    design = data[:, :-1]
    response = data[:, -1]
    column_names = [names[j] for j in feature_idx]

    if standardize:
        mean = design.mean(axis=0)
        std = design.std(axis=0)
        if np.any(std == 0.0):
            j = int(np.argmax(std == 0.0))
            raise DomainError(f"cannot standardize constant column {column_names[j]!r}")
        design = (design - mean) / std
        log.append("standardized feature columns to zero mean, unit deviation")

    if add_intercept:
        design = np.hstack([np.ones((design.shape[0], 1)), design])
        column_names = ["intercept"] + column_names
        log.append("added intercept column")

    if design.shape[0] <= design.shape[1]:
        raise DomainError(
            f"{path}: need more rows than features, got D={design.shape[0]}, p={design.shape[1]}")

    provenance = {"source": str(path), "log": log}
    return Dataset(design=design, response=response, column_names=column_names,
                   response_name=names[target_idx], provenance=provenance)


def surrogate_truth(ds: Dataset, unbiased: bool = False) -> tuple[np.ndarray, float]:
    """Full-data stand-in for the unknown truth: (theta_o, sigma).

    theta_o is the whole-dataset least-squares fit; sigma is the root
    mean squared residual, divided by D (or D - p when unbiased=True).
    """
    theta = batch_lse(ds.design, ds.response)
    resid = ds.response - ds.design @ theta
    denom = ds.D - ds.p if unbiased else ds.D
    sigma = math.sqrt(float(resid @ resid) / denom)
    return theta, sigma


def write_csv(ds: Dataset, path) -> None:
    """Write the dataset back out (features then response, full
    precision) so a reload reproduces identical values."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.column_names + [ds.response_name])
        for x_row, y in zip(ds.design, ds.response):
            writer.writerow([repr(float(v)) for v in x_row] + [repr(float(y))])


def sidecar_path(csv_path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.name + ".meta.json")


def write_sidecar(ds: Dataset, csv_path) -> Path:
    """Emit the provenance log as a JSON sidecar next to the CSV."""
    out = sidecar_path(csv_path)
    doc = {"source": ds.provenance["source"], "log": ds.provenance["log"],
           "rows": ds.D, "feature_columns": ds.column_names,
           "response_column": ds.response_name}
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out
