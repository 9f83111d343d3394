"""On-disk formats: binary field dumps, CSV reports, and run metadata.

The field dumps are bit-exact: a 32-byte header (magic ``MCHB``, format version,
nx, ny, component count as little-endian uint32, 12 reserved zero bytes)
followed by each component as row-major little-endian float64.

CSV reports are RFC-4180 with '.' decimals, one row per completed step, and a
header row that exactly matches the documented schema.  Floats are written
with shortest-round-trip precision so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .diagnostics import CSV_HEADER
from .parameters import ScenarioConfig, config_to_dict
from .state import StateFields

MAGIC = b"MCHB"
VERSION = 1
_HEADER = struct.Struct("<4sIIII12x")


def write_field_dump(path, components: np.ndarray) -> None:
    """Write a (ncomp, ny, nx) stack in the binary dump format."""
    arr = np.ascontiguousarray(np.asarray(components, dtype="<f8"))
    if arr.ndim == 2:
        arr = arr[None]
    ncomp, ny, nx = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, nx, ny, ncomp))
        fh.write(arr.tobytes(order="C"))


def read_field_dump(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"truncated field dump header ({len(head)} bytes)")
        magic, version, nx, ny, ncomp = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"not a field dump (magic {magic!r})")
        if version != VERSION:
            raise ValueError(f"unsupported dump version {version}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != ncomp * ny * nx:
        raise ValueError("truncated field dump")
    return data.reshape(ncomp, ny, nx).copy()


class RunWriter:
    """Streams the per-step CSV report and periodic state snapshots."""

    def __init__(self, out_dir, config: ScenarioConfig, *, tag: str = "run"):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.tag = tag
        self.csv_path = self.dir / f"{tag}_report.csv"
        self.meta_path = self.dir / f"{tag}_meta.json"
        self._rows = 0
        meta = {"seed": config.seed, "config": config_to_dict(config),
                "format_version": VERSION}
        # the metadata first: if it cannot be written, no report is open
        self.meta_path.write_text(json.dumps(meta, indent=2))
        try:
            self._fh = open(self.csv_path, "w", newline="")
        except OSError:
            self.meta_path.unlink()
            raise
        self._csv = csv.writer(self._fh, lineterminator="\n")
        self._csv.writerow(CSV_HEADER)

    def write_row(self, row: list[str]) -> None:
        self._csv.writerow(row)
        self._fh.flush()
        self._rows += 1

    def snapshot(self, state: StateFields, step: int) -> None:
        stack = np.concatenate([state.phi, state.mu, state.sigma,
                                state.v, state.p[None]])
        write_field_dump(self.dir / f"{self.tag}_state_{step:06d}.bin", stack)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self.close()
        if exc_type is not None and not self._rows:
            # a run that failed before its first step leaves no metadata and
            # header-only report that read like a finished run of 0 steps
            self.meta_path.unlink(missing_ok=True)
            self.csv_path.unlink(missing_ok=True)


def read_csv_report(path):
    """Parse a report CSV back into a header list and a float array."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    if header != CSV_HEADER:
        raise ValueError("report header does not match the documented schema")
    if not data:
        return header, np.empty((0, len(CSV_HEADER)))
    return header, np.array([[float(v) for v in row] for row in data])


def write_sweep_csv(path, eta_levels, gaps, gaps_rel, residuals,
                    partial: bool = False) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["eta", "velocity_gap", "velocity_gap_rel", "darcy_residual",
                    "partial"])
        for i, eta in enumerate(eta_levels):
            w.writerow([format(eta, ".17g"), format(gaps[i], ".17g"),
                        format(gaps_rel[i], ".17g"),
                        format(residuals[i], ".17g"), str(int(partial))])
