"""CSV profile parsing and the versioned JSON report document.

Profiles are CSV files, one voter per row, with an optional header row
(detected by any non-numeric cell in the first row); a matrix or weights
file is read as one. Floats serialize with 17 significant digits so a
written profile re-parses to identical values.
"""

import csv
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__

__all__ = [
    "ParseError",
    "read_profile_csv",
    "read_weights_csv",
    "write_profile_csv",
    "write_rows_csv",
    "fmt_float",
    "make_report",
    "dump_report",
]

SCHEMA_VERSION = 1
EPOCH_RFC3339 = "1970-01-01T00:00:00Z"


class ParseError(ValueError):
    """Input file failed validation; message carries the line number."""


def fmt_float(x: float) -> str:
    """17 significant digits: round-trips IEEE doubles exactly."""
    return format(float(x), ".17g")


def _parse_cell(text: str, path: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}:{line_no}: cell {text!r} is not a number") from None
    if not np.isfinite(value):
        raise ParseError(f"{path}:{line_no}: cell {text!r} is not finite")
    return value


def _read_rows(path: str) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            raw = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    rows = [(i + 1, [c.strip() for c in row]) for i, row in enumerate(raw)
            if any(c.strip() for c in row)]
    if not rows:
        raise ParseError(f"{path}:1: file is empty")
    return rows


def _open_for_write(path: str, **kwargs):
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise ParseError(f"{path}: cannot write file: {exc}") from None


def _is_numeric_row(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return False
    return True


def read_profile_csv(path: str) -> np.ndarray:
    """Rectangular numeric CSV, one voter per row; header row skipped."""
    rows = _read_rows(path)
    if not _is_numeric_row(rows[0][1]):
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}:2: no data rows after the header")
    width = len(rows[0][1])
    data = []
    for line_no, cells in rows:
        if len(cells) != width:
            raise ParseError(
                f"{path}:{line_no}: expected {width} columns, found {len(cells)}"
            )
        data.append([_parse_cell(c, path, line_no) for c in cells])
    return np.asarray(data, dtype=float)


def read_weights_csv(path: str, voter_count: int) -> np.ndarray:
    """A one-column profile CSV, one weight per voter; the profile judges the values."""
    w = read_profile_csv(path)
    if w.shape != (voter_count, 1):
        raise ParseError(f"{path}: expected {voter_count} rows of one weight, "
                         f"found {w.shape[0]} rows of {w.shape[1]}")
    return w[:, 0]


def write_profile_csv(path: str, points: np.ndarray) -> None:
    with _open_for_write(path, newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(points):
            writer.writerow([fmt_float(x) for x in row])


def write_rows_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    """Long-form CSV, one row per trial; floats at 17 significant digits."""
    with _open_for_write(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            out = {}
            for key in fieldnames:
                value = row.get(key)
                if isinstance(value, float):
                    out[key] = fmt_float(value)
                else:
                    out[key] = value
            writer.writerow(out)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return "Infinity" if obj > 0 else ("-Infinity" if obj < 0 else "NaN")
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def make_report(inputs: dict, results: dict, certificates: dict = None,
                deterministic: bool = False) -> dict:
    """Versioned report document: inputs echo, results, certificates, provenance."""
    timestamp = (
        EPOCH_RFC3339
        if deterministic
        else datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "inputs": _jsonable(inputs),
        "results": _jsonable(results),
        "certificates": _jsonable(certificates or {}),
        "provenance": {"tool": "medianforge", "version": __version__,
                       "timestamp": timestamp},
    }


def dump_report(report: dict, path: str = None) -> None:
    """Sorted, indented JSON to path, or to stdout when path is empty or None."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=True) + "\n"
    if path:
        with _open_for_write(path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
