"""Agreement of this checkout with another commit on a fixed set of runs.

Usage: ``python tools/agree.py <commit>``

The commit's ``src/`` is exported with ``git archive`` into a temporary
directory.  Each tree, that export and then this checkout's ``src/``, runs
``CASES`` in a Python subprocess of its own.  For every case the script
prints ``==`` when the two trees agree bit for bit, or else the largest
relative difference ``max |a - b| / max(|a|, |b|)``:

- of the final phi, mu, sigma, v and p;
- of each report column (the run's CSV rows) over the steps;
- of each solver count over the steps: flow iterations (Uzawa sweeps)
  and phase-solve updates, one difference per count.

A report column whose ``max(|a|, |b|)`` is below ``ROUNDOFF`` times the
case's largest report value on either tree holds round-off on both, where
the relative difference reads about 1 whatever the trees do; it shows the
absolute ``max |a - b|`` instead, marked ``abs``.  ``identity_residual``
has a floor of its own: it is ``(E(phi^{n+1}) - E(phi^n)) / dt`` plus the
step's other terms, so it holds the rounding of ``E`` over ``dt``, far
above that shared floor when ``dt`` is small; it reads ``abs`` below
``IDENTITY_ULPS`` ulps of the case's largest ``|E|`` over its least ``dt``.

It also compares the errors of every ``verification.run_all`` study on the
grid ladder ``MMS_LADDER``, one value per study, and runs the random
large-step set ``large_step_configs()``: for each configuration it prints
whether the run aborted and how often it halved dt on either tree, and the
agreement of the final fields.

The case and configuration sets are fixed, so every comparison runs the
same runs.
"""

from __future__ import annotations

import dataclasses
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

# (preset, cells per side, steps, config overrides)
CASES = (
    ("stratified-tumor", 32, 8, {}),
    ("zero-source", 32, 8, {}),
    ("darcy-limit", 32, 8, {}),
    ("mms", 32, 8, {}),
    ("zero-source", 64, 8, {}),
    ("darcy-limit", 64, 8, {}),
    ("darcy-limit", 128, 6, {}),
    ("zero-source", 128, 4, {"flow_enabled": False}),
)
MMS_LADDER = (32, 64, 128, 256)
FIELDS = ("phi", "mu", "sigma", "v", "p")
COUNTS = ("flow_iterations", "picard_iters")
ROUNDOFF = 1e-12
IDENTITY_ULPS = 16


def large_step_configs(seed=1301, count=24):
    """Seeded random small configurations at 1 to 1000 times the default dt.

    Preset, grid (8 to 16 cells a side), dt (log-uniform), flow backend,
    flow and sources on or off, initial condition and its seed are drawn;
    each run takes 3 steps.
    """
    from mchb.parameters import build_default_scenario

    rng = np.random.default_rng(seed)
    for _ in range(count):
        cfg = build_default_scenario(str(rng.choice(
            ["stratified-tumor", "zero-source", "darcy-limit"])))
        n = int(rng.integers(8, 17))
        dt = cfg.dt * 10.0 ** rng.uniform(0.0, 3.0)
        yield dataclasses.replace(
            cfg, grid_nx=n, grid_ny=n, dt=dt, t_end=3 * dt,
            flow_backend=str(rng.choice(["darcy", "brinkman"])),
            flow_enabled=bool(rng.integers(2)),
            sources_enabled=bool(rng.integers(2)),
            initial_condition=str(rng.choice(
                ["stratified", "random-smooth", "uniform"])),
            seed=int(rng.integers(1000)))


def large_step_name(k: int, cfg) -> str:
    """One line naming the ``k``-th large-step configuration."""
    from mchb.parameters import default_dt

    flow = cfg.flow_backend if cfg.flow_enabled else "flow off"
    sources = "sources on" if cfg.sources_enabled else "sources off"
    return (f"large-dt {k}: {cfg.grid_nx}x{cfg.grid_ny}, "
            f"dt {cfg.dt / default_dt(cfg.model):.3g} dt0, K={cfg.model.K:g}, "
            f"{flow}, {sources}, {cfg.initial_condition}")


def case_name(preset: str, n: int, steps: int, overrides: dict) -> str:
    extra = "".join(f", {k}={v}" for k, v in overrides.items())
    return f"{preset} {n}x{n}, {steps} steps{extra}"


class _Rows:
    """A run writer that keeps the report rows and drops the snapshots."""

    def __init__(self):
        self.rows = []

    def write_row(self, row):
        self.rows.append([float(v) for v in row])

    def snapshot(self, state, step):
        pass


def run_cases(out_path: str) -> None:
    """Run ``CASES`` with the ``mchb`` on the path; save the results to npz."""
    import mchb
    from mchb.diagnostics import CSV_HEADER
    from mchb.parameters import build_default_scenario
    from mchb.stepping import TimeStepper
    from mchb.verification import run_all

    out = {"mchb_file": np.array(mchb.__file__),
           "header": np.array(CSV_HEADER)}
    for preset, n, steps, overrides in CASES:
        name = case_name(preset, n, steps, overrides)
        base = build_default_scenario(preset)
        cfg = dataclasses.replace(base, grid_nx=n, grid_ny=n,
                                  t_end=steps * base.dt, **overrides)
        rows = _Rows()
        summary = TimeStepper(cfg).run(writer=rows)
        for field in FIELDS:
            out[f"{name}|{field}"] = getattr(summary.state, field)
        out[f"{name}|report"] = np.reshape(rows.rows, (-1, len(CSV_HEADER)))
        out[f"{name}|counts"] = np.reshape(
            [[getattr(r, c) for c in COUNTS] for r in summary.reports],
            (-1, len(COUNTS)))
        out[f"{name}|message"] = np.array(summary.message)
    for study in run_all(MMS_LADDER):
        out[f"mms|{study.name}"] = np.array(study.errors)
    for k, cfg in enumerate(large_step_configs()):
        summary = TimeStepper(cfg).run()
        out[f"large|{k}|name"] = np.array(large_step_name(k, cfg))
        # the run loop only halves dt, so dt_final is dt over a power of two
        out[f"large|{k}|outcome"] = np.array(
            [summary.aborted, round(math.log2(cfg.dt / summary.dt_final))])
        for field in FIELDS:
            out[f"large|{k}|{field}"] = getattr(summary.state, field)
    np.savez(out_path, **out)


class Absolute(float):
    """An absolute difference, of values at round-off on both trees."""


def difference(a, b, noise: float = 0.0) -> float | None:
    """None when ``a`` and ``b`` are equal bit for bit, else
    ``max |a - b| / max(|a|, |b|)`` (inf when the shapes differ), or
    ``Absolute(max |a - b|)`` when ``max(|a|, |b|)`` is below ``noise``.

    Zeros of opposite sign differ by 0.0, and NaN anywhere gives NaN.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    if a.tobytes() == b.tobytes():
        return None
    diff = float(np.abs(a - b).max())
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    if scale < noise:
        return Absolute(diff)
    return diff and diff / scale


def report_floors(header: list[str], a, b) -> list[float]:
    """Per report column, the level below which it holds only round-off on
    both trees ``a`` and ``b`` (rows of steps, columns as in ``header``).

    ``ROUNDOFF`` times the case's largest report value, and for
    ``identity_residual`` at least ``IDENTITY_ULPS`` ulps of the largest
    ``|E|`` over the least ``dt``, the rounding of its ``dE / dt`` term.
    """
    if not a.size:
        return [0.0] * len(header)
    floors = [ROUNDOFF * float(np.abs([a, b]).max())] * len(header)
    if "identity_residual" in header:
        e, dt = header.index("E"), header.index("dt")
        ulps = IDENTITY_ULPS * np.finfo(float).eps \
            * float(np.abs([a[:, e], b[:, e]]).max())
        at = header.index("identity_residual")
        floors[at] = max(floors[at],
                         ulps / float(np.min([a[:, dt], b[:, dt]])))
    return floors


def compare(ref: dict, new: dict) -> dict[str, dict[str, float | None]]:
    """Per case, the ``difference`` of each field, report column and count.

    A count is keyed ``counts|<name>``, apart from the report column of the
    same name.  A report column is ``Absolute`` below its ``report_floors``
    value.
    """
    header = [str(h) for h in ref["header"]]
    out = {}
    for case in CASES:
        name = case_name(*case)
        items = {f: difference(ref[f"{name}|{f}"], new[f"{name}|{f}"])
                 for f in FIELDS}
        for table, cols in (("report", header),
                            ("counts", [f"counts|{c}" for c in COUNTS])):
            a, b = ref[f"{name}|{table}"], new[f"{name}|{table}"]
            if a.shape != b.shape:
                items.update(dict.fromkeys(cols, math.inf))
                continue
            floors = report_floors(header, a, b) if table == "report" \
                else [0.0] * len(cols)
            for j, col in enumerate(cols):
                items[col] = difference(a[:, j], b[:, j], floors[j])
        out[name] = items
    return out


def compare_mms(ref: dict, new: dict) -> dict[str, float | None]:
    """Per MMS study, the ``difference`` of its errors on ``MMS_LADDER``.

    A study that only one tree ran differs by inf.
    """
    keys = dict.fromkeys(k for k in (*ref, *new) if k.startswith("mms|"))
    return {k.removeprefix("mms|"): difference(ref[k], new[k])
            if k in ref and k in new else math.inf for k in keys}


def compare_large(ref: dict, new: dict) -> dict[str, dict]:
    """Per large-step configuration, the outcome ``(aborted, halvings)`` on
    each tree and the ``difference`` of each final field.

    The configurations are named as the second tree names them.
    """
    out = {}
    for key in new:
        if key.startswith("large|") and key.endswith("|name"):
            at = key.removesuffix("name")
            out[str(new[key])] = {
                "outcome": tuple((bool(res[f"{at}outcome"][0]),
                                  int(res[f"{at}outcome"][1]))
                                 for res in (ref, new)),
                **{f: difference(ref[f"{at}{f}"], new[f"{at}{f}"])
                   for f in FIELDS}}
    return out


def _shown(d: float | None) -> str:
    if d is None:
        return "=="
    return f"abs {d:.2e}" if isinstance(d, Absolute) else f"{d:.2e}"


def format_report(result: dict) -> list[str]:
    """Three lines per case: the fields, the report columns, the counts."""
    lines = []
    for name, items in result.items():
        fields = ", ".join(f"{f} {_shown(items[f])}" for f in FIELDS)
        counts = ", ".join(f"{c} {_shown(items[f'counts|{c}'])}"
                           for c in COUNTS)
        moved = ", ".join(f"{k} {_shown(d)}" for k, d in items.items()
                          if k not in FIELDS and not k.startswith("counts|")
                          and d is not None)
        lines += [name, f"  fields: {fields}",
                  f"  report: {'all == except ' + moved if moved else '=='}",
                  f"  counts: {counts}"]
    return lines


def format_mms(result: dict) -> list[str]:
    """A title line, then the errors of each MMS study on the ladder."""
    studies = ", ".join(f"{k} {_shown(d)}" for k, d in result.items())
    return [f"mms ladder {'/'.join(map(str, MMS_LADDER))}",
            f"  errors: {studies}"]


def format_large(result: dict) -> list[str]:
    """Two lines per large-step configuration: the outcome on each tree, then
    the fields."""
    lines = []
    for name, items in result.items():
        (abort_a, halve_a), (abort_b, halve_b) = items["outcome"]
        fields = ", ".join(f"{f} {_shown(items[f])}" for f in FIELDS)
        lines += [name,
                  f"  aborted {abort_a}/{abort_b}, halvings {halve_a}/{halve_b}"
                  f"; fields: {fields}"]
    return lines


def _results_of(src: Path, tmp: Path, tag: str) -> dict:
    """Run the cases in a subprocess that imports ``mchb`` from ``src``."""
    out_path = tmp / f"{tag}.npz"
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import agree; agree.run_cases({str(out_path)!r})")
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    with np.load(out_path) as data:
        res = dict(data)
    loaded = Path(str(res["mchb_file"])).resolve()
    if src.resolve() not in loaded.parents:
        raise RuntimeError(f"{tag}: imported mchb from {loaded}, not {src}")
    return res


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    commit = argv[0]
    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"],
                               capture_output=True, text=True, check=True,
                               cwd=Path(__file__).parent).stdout.strip())
    archive = subprocess.run(["git", "-C", str(root), "archive",
                              "--format=tar", commit, "src"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="agree-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "commit", filter="data")
        ref = _results_of(tmp / "commit" / "src", tmp, "commit")
        new = _results_of(root / "src", tmp, "checkout")
    print(f"agreement of {commit} (a) with the checkout (b): "
          "== or max |a - b| / max(|a|, |b|); abs: max |a - b| of a report "
          f"column below {ROUNDOFF:g} of the case's largest report value "
          f"(identity_residual: below {IDENTITY_ULPS} ulps of max |E| over "
          "min dt, if larger)")
    print("\n".join(format_report(compare(ref, new))
                    + format_mms(compare_mms(ref, new))
                    + format_large(compare_large(ref, new))))
    for case in CASES:
        name = case_name(*case)
        for tag, res in (("commit", ref), ("checkout", new)):
            if str(res[f"{name}|message"]):
                print(f"{name} ({tag}): {res[f'{name}|message']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
