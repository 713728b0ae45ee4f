"""The literal decoder's counts and metrics in their first, direct form: the
joint type counts of every codeword in one int64 ``bincount``, and each
metric summed by ``.sum`` over the cells of C-contiguous (..., |Y|, |X|)
matrices.  ``nts.simulate.decode``, ``decode_metric`` and ``loglik_metric``
are compared with it bit for bit."""

import math

import numpy as np

from nts.itcore import guarded_log, xlogx


def reference_counts(books, y, nx, ny):
    """Joint type counts (..., M, |Y|, |X|), int64, of every codeword of
    ``books`` (..., M, n) with its received word ``y`` (..., n)."""
    lead = books.shape[:-1]
    cells = ny * nx
    offs = np.arange(math.prod(lead)).reshape(lead)[..., None] * cells
    flat = np.bincount((offs + y[..., None, :] * nx + books).ravel(), minlength=math.prod(lead) * cells)
    return flat.reshape(*lead, ny, nx)


def reference_decode_metric(counts, n, q):
    """D(ToV || TxQ) of C-contiguous count matrices, +inf off supp(Q)."""
    c = np.asarray(counts, dtype=float)
    vals = (
        xlogx(c).sum(axis=(-2, -1))
        - xlogx(c.sum(axis=-1)).sum(axis=-1)
        - (c * guarded_log(q.probs, 0.0)).sum(axis=(-2, -1))
    ) / n
    off = q.probs == 0
    if off.any():
        vals = np.where(c[..., off].any(axis=(-2, -1)), np.inf, vals)
    return vals


def reference_loglik_metric(counts, n, logp):
    """(1/n) sum counts log P of C-contiguous count matrices."""
    with np.errstate(invalid="ignore"):
        cells = np.where(counts > 0, counts * logp, 0.0)
    return cells.sum(axis=(-2, -1)) / n
