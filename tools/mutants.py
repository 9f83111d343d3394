"""Which tier-1 test kills each of a fixed list of source mutants.

Usage: ``python tools/mutants.py``

A mutant replaces one exact piece of text, which occurs once, in one file
of ``src/``.  For each entry of ``MUTANTS`` the checkout's files (tracked
and untracked, less what ``.gitignore`` lists) are copied into a temporary
directory, the mutant is applied to the copy, and tier-1 runs there with
``-x``.  The script prints the first test that failed, the one that killed
the mutant, or ``SURVIVED``, and a mutant marked equivalent also prints why
it changes no result that the model defines.

The list is fixed: a mutant is never dropped because it survives.  A test
of the suite checks that every old text still occurs exactly once, so an
edit of the source that moves one fails there, not here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file, exact old text, new text, what the mutant breaks, why it is
# equivalent or None)
MUTANTS = (
    ("src/mchb/flow.py",
     "for q, w in zip([*phi, *sigma], [*mu, *n_sigma]):",
     "for q, w in zip([*phi], [*mu]):",
     "Korteweg force without its nutrient term", None),
    ("src/mchb/stepping.py",
     "- conv_sigma - s_sigma[0]",
     "+ conv_sigma - s_sigma[0]",
     "nutrient transport with the wrong sign", None),
    ("src/mchb/constitutive.py",
     "- c.rate_b * (c.sigma_Omega - s[0]))[None]",
     "+ c.rate_b * (c.sigma_Omega - s[0]))[None]",
     "vasculature supply with the wrong sign", None),
    ("src/mchb/flow.py",
     "dissipation = float(v_flat @ rhs) * grid.cell_area",
     "dissipation = nu * float(v_flat @ v_flat) * grid.cell_area",
     "Brinkman dissipation taken as Darcy's", None),
    ("src/mchb/grid.py",
     "return (bc.k * bc.target + (c / h - 0.5 * bc.k) * edge) / denom",
     "return (-bc.k * bc.target + (c / h - 0.5 * bc.k) * edge) / denom",
     "Robin ghost with the wrong sign of its target", None),
    ("src/mchb/stepping.py",
     "extrapolate(history, state.t + dt))",
     "None)",
     "phase solve started from phi^n, not the extrapolated state",
     "the start moves only where the iteration begins: every step still "
     "meets PHASE_TOL, so it costs updates, not accuracy"),
    ("src/mchb/diagnostics.py",
     "return bc.k * bc.diffusivity * sum(",
     "return bc.k * sum(",
     "Robin boundary absorption without its chi_sigma factor", None),
    ("src/mchb/state.py",
     "+ m.gamma / m.epsilon * grad[i] + n_phi[i]",
     "+ m.gamma / m.epsilon * grad[i]",
     "initial mu without its chemical part N_phi", None),
    ("src/mchb/flow.py",
     "return y.reshape(-1, 2).T.ravel()",
     "return y",
     "interleaved K solve returned without its inverse permutation", None),
    ("src/mchb/flow.py",
     "iterations=sweeps)",
     "iterations=max(sweeps, 1))",
     "Brinkman solve reporting a sweep it never ran", None),
    ("src/mchb/flow.py",
     "        self.clear()\n        self.k_lu, kdiag = ",
     "        self.k_lu, kdiag = ",
     "Uzawa space kept its directions and offset across a new key", None),
    ("src/mchb/flow.py",
     "self.basis.inverse(coef / self.wall)",
     "self.basis.inverse(coef / self.interior)",
     "Schur preconditioner with the interior symbol on the wall band", None),
    ("src/mchb/grid.py",
     "q[:, 0] /= np.sqrt(2.0)",
     "q[:, 0] /= 1.0",
     "dense Neumann basis without the 1/sqrt(2) of its column 0", None),
    ("src/mchb/grid.py",
     "q[:, -1] /= np.sqrt(2.0)",
     "q[:, 0] /= np.sqrt(2.0)",
     "dense Dirichlet basis scaling its column 0, not its last column", None),
)

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
         "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def apply(root: Path, mutant: tuple) -> None:
    """Replace the mutant's old text in its file under ``root``."""
    path, old, new = root / mutant[0], mutant[1], mutant[2]
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{mutant[0]}: the old text of {mutant[3]!r} occurs "
                         f"{text.count(old)} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def killer(output: str) -> str | None:
    """The first failed or erroring test of a pytest ``-rfE`` summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def checkout_files(root: Path) -> list[str]:
    """The checkout's files, tracked and untracked, less the ignored."""
    out = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached",
                          "--others", "--exclude-standard"],
                         capture_output=True, text=True, check=True).stdout
    return [name for name in out.split("\0") if (root / name).is_file()]


def run_mutant(mutant: tuple, files: list[str]) -> tuple[str, float]:
    """Tier-1 with ``-x`` on a mutated copy: its verdict and wall time."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for name in files:
            (tmp / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tmp / name)
        apply(tmp, mutant)
        t0 = time.perf_counter()
        res = subprocess.run(TIER1, cwd=tmp, capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(tmp / "src"),
                                      OMP_NUM_THREADS="1"))
        wall = time.perf_counter() - t0
    if res.returncode == 0:
        return "SURVIVED", wall
    test = killer(res.stdout)
    return (f"killed by {test}" if test
            else f"killed (pytest exit {res.returncode})"), wall


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    files = checkout_files(ROOT)
    survived = 0
    for k, mutant in enumerate(MUTANTS):
        verdict, wall = run_mutant(mutant, files)
        survived += verdict == "SURVIVED"
        print(f"{k} {mutant[3]} ({mutant[0]}): {verdict} [{wall:.0f} s]")
        if mutant[4]:
            print(f"  equivalent: {mutant[4]}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
