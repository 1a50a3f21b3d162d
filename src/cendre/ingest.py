"""Real-dataset pipeline: CSV to a clean numeric Dataset, plus the
full-data surrogate ground truth used when no true coefficients exist.

Loading is deliberately conservative: every preprocessing action
(dropped column, skipped row, standardization, intercept) is appended
to the provenance log carried by the Dataset, and the log can be
written next to the CSV as a JSON sidecar.  A body that numpy's reader
parses is also kept next to the CSV as a parsed copy, which later loads
of the same bytes read instead of parsing the text again.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import secrets
import stat
import warnings
import zipfile
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


# Bump when the parsed copy's layout changes, so that copies written
# before no longer match; the numpy version in the key does the same for
# a change in what numpy's reader accepts.
_PARSED_FORMAT = 1


def _parsed_path(csv_path) -> Path:
    """Where load_csv keeps the parsed copy of a CSV's numeric body."""
    p = Path(csv_path)
    return p.with_name(p.name + ".parsed.npz")


def _digest(raw) -> tuple[str, int] | None:
    """(SHA-256, length) of the regular file open as raw, read from its
    start in blocks, so memory stays flat, and raw is left at its start.
    None for a pipe or other special file, which reading would drain."""
    if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
        return None
    raw.seek(0)
    digest, size = hashlib.sha256(), 0
    for block in iter(lambda: raw.read(1 << 16), b""):
        digest.update(block)
        size += len(block)
    raw.seek(0)
    return digest.hexdigest(), size


def _load_parsed(cache: Path, key: str, width: int) -> np.ndarray | None:
    """The body stored under key, or None for a missing, unreadable,
    corrupt or mismatched copy."""
    try:
        # np.load leaves a file it opened itself open when the zip is bad.
        with open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if npz["key"].item() != key:
                return None
            body = npz["body"]
    except (OSError, EOFError, ValueError, TypeError, KeyError, RuntimeError,
            zipfile.BadZipFile):
        # TypeError: a plain .npy array is no NpzFile, so no context manager;
        # RuntimeError: a member flagged encrypted or of unknown compression.
        return None
    if (body.dtype != np.float64 or body.ndim != 2 or body.shape[1] != width
            or body.size == 0 or not body.flags.c_contiguous):
        return None
    return body


def _write_member(zf: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    """array as the .npy member name of zf, written from its own buffer:
    np.savez would copy it, up to 16 MiB at a time, into a zip member."""
    with zf.open(name + ".npy", "w", force_zip64=True) as member:
        np.lib.format.write_array_header_1_0(
            member, np.lib.format.header_data_from_array_1_0(array))
        member.write(memoryview(array).cast("B"))


def _store_parsed(cache: Path, key: str, body: np.ndarray) -> None:
    """Replace the copy at cache with body under key, in one rename so that
    no reader sees half a file.  An OSError (read-only directory, full
    disk) leaves no copy and no temporary file, and is not raised."""
    tmp = cache.with_name(f"{cache.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as zf:
            _write_member(zf, "key", np.array(key))
            _write_member(zf, "body", body)
        os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):  # also when open() made no file
            os.unlink(tmp)


def _numeric_body(path: Path, fh, digest, delimiter: str, header: bool, width: int):
    """_read_numeric's result for the rest of fh, through the parsed copy.

    fh is text over the binary handle fh.buffer, and digest is _digest's
    result for that handle before any of it was read: the key hashes the
    bytes of the file that is parsed, even if another file has been
    renamed over path since.  A body that matches its key is not parsed.
    A parsed body is stored only if the parse ended where the hash did
    and a second hash of the handle agrees, so a file rewritten in place
    during the load leaves no copy, unless the rewrite kept its length
    throughout and ended with the hashed bytes.  A pipe or other special
    file (digest None) is only parsed.
    """
    if digest is None:
        return _read_numeric(fh, delimiter, width)
    key = f"{_PARSED_FORMAT}:{np.__version__}:{digest[0]}:{delimiter!r}:{int(header)}"
    cache = _parsed_path(path)
    data = _load_parsed(cache, key, width)
    if data is None:
        data = _read_numeric(fh, delimiter, width)
        if (data is not None and fh.buffer.tell() == digest[1]
                and _digest(fh.buffer) == digest):
            _store_parsed(cache, key, data)
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
    A file with no feature column left after drops and the intercept
    raises DomainError.  The file is read as UTF-8, with or without a
    byte-order mark.

    The body numpy parses is kept next to the CSV as <name>.parsed.npz,
    keyed by the SHA-256 of the file's bytes, the delimiter, the header
    flag, the numpy version and a format version; a later load with the
    same key reads it back instead of parsing, and returns an equal
    Dataset.  The copy is trusted like the CSV itself.  Deleting it is
    always safe, and where it cannot be written the load just parses
    every time.  The cell-by-cell path neither reads nor writes it.

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
    if isinstance(target_column, bool):
        raise ConfigError(f"target column {target_column!r} is neither a name nor an index")
    path = Path(path)
    log: list[str] = []
    with open(path, "rb") as raw:
        digest = _digest(raw)
        with io.TextIOWrapper(raw, encoding="utf-8-sig", newline="") as fh:
            first = next(filter(None, csv.reader(fh, delimiter=delimiter)), None)
            if not header:
                fh.seek(0)
            data = (None if first is None
                    else _numeric_body(path, fh, digest, delimiter, header, len(first)))
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

    if design.shape[1] == 0:
        raise DomainError(f"{path}: no numeric feature columns left")
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
    return _write_json(doc, out)


def _write_json(doc, path) -> Path:
    """Write doc as sorted JSON indented by two, plus a newline."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
