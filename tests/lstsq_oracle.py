"""The per-point least-squares solve, kept as the reference that the batched
Jacobi SVD of ``ksym.symmetry._stacked_solve`` is tested against.

It calls ``np.linalg.lstsq`` once per sample and right-hand side with the
cutoff the stacked solve uses (``rcond=1e-12``), and counts rank with
``np.linalg.matrix_rank``.
"""

from __future__ import annotations

import numpy as np


def solve(Zmats, rhs):
    """Minimum-norm solutions of Zmats[i] @ x = rhs[i], one sample and one
    column at a time: the (m, k, c) solutions, each sample's worst absolute
    residual and the count of samples whose Z has rank below k."""
    m, _, k = Zmats.shape
    sol = np.zeros((m, k, rhs.shape[2]))
    residuals = np.zeros(m)
    for pi, Zmat in enumerate(Zmats):
        worst = 0.0
        for a in range(rhs.shape[2]):
            x, *_ = np.linalg.lstsq(Zmat, rhs[pi, :, a], rcond=1e-12)
            sol[pi, :, a] = x
            worst = max(worst, float(np.max(np.abs(Zmat @ x - rhs[pi, :, a]))))
        residuals[pi] = worst
    rank_deficient = int(np.count_nonzero(np.linalg.matrix_rank(Zmats) < k))
    return sol, residuals, rank_deficient
