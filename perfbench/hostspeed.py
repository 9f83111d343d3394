"""Fixed scipy kernels that measure how fast the host runs right now.

The benchmark host is shared: its speed drifts by 10-30% over tens of
seconds, and kernels in a process slow together.  Timing a kernel next to
each operation and scaling the operation's wall time by
``reference time / kernel time`` removes most of that drift, when the
kernel does the same kind of work as the operation.  Two kinds cover the
workloads: ``lu`` (a sparse LU of a fourth-order stencil plus sparse
products) for the stepping workloads, whose steps are mostly sparse LU, and
``cg`` (conjugate-gradient sweeps on a Laplacian) for the MMS ladder, which
is mostly the Darcy CG.  Measured on the reference host, the median of six
20 s processes spread over 336-414 ms raw and over 1.5% scaled for a
darcy-limit-64 step, and over 3634-4275 ms raw and about 3% scaled for an
MMS pass.  The kernels use no mchb code, so a change to mchb cannot move
them.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
# bound at import, so the tracer's wrapper of splu never sees these kernels
from scipy.sparse.linalg import cg, splu

# each kernel's typical time on the reference host (2-core Xeon at 2.1 GHz,
# one numerical-library thread); scaled times read as wall times there
REFERENCE_S = {"lu40": 0.018, "lu56": 0.036, "cg256": 0.025}


def _laplacian(n: int) -> sp.csr_matrix:
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return sp.kronsum(t, t, format="csr")


class HostSpeed:
    def __init__(self, kernel: str):
        self.reference_s = REFERENCE_S[kernel]
        self._kernel = self._lu if kernel.startswith("lu") else self._cg
        lap = _laplacian(int(kernel[2:]) if kernel.startswith("lu") else 40)
        self._jac = (sp.identity(lap.shape[0]) + 0.05 * lap @ lap).tocsc()
        self._rhs = np.ones(lap.shape[0])
        self._big = _laplacian(256)

    def _lu(self) -> None:
        splu(self._jac).solve(self._rhs)
        v = np.ones(self._big.shape[0])
        for _ in range(8):
            v = 0.25 * (self._big @ v)

    def _cg(self) -> None:
        cg(self._big, np.ones(self._big.shape[0]), maxiter=30, rtol=1e-30)

    def sample(self) -> float:
        """Seconds one pass of the kernel takes now."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def scale(self, samples) -> float:
        """Factor turning wall times taken alongside ``samples`` into
        reference-host times."""
        return self.reference_s / float(np.median(samples))
