"""Matrix exponential and its Frechet derivative, for real or complex
matrices and stacks of them.

Pade scaling and squaring (N. J. Higham, SIAM J. Matrix Anal. Appl.
26:1179, 2005) with the one [13/13] approximant: A is scaled by the least
2^-s, s >= 0, that brings its 1-norm within theta_13, and r_13(2^-s A) is
squared s times.  A stack of matrices is grouped by each matrix's own s, so
every matrix of a batch takes the arithmetic of a single call, bit for bit.
The theta_13 bound holds for complex matrices too, and the scaling is by
the exact power 2^-s.
"""

from __future__ import annotations

import math

import numpy as np

# The largest 1-norm for which r_13 keeps the backward error below the unit
# roundoff (Higham 2005, Table 2.3).
_THETA = 5.371920351148152e0
# s squarings can amplify rounding by 2^s: past 2^s u = 1 that bound keeps
# no digit, so a matrix that needs more reads as NaN.
_MAX_SQUARINGS = 52
# Coefficients b_0 .. b_13 of the [13/13] Pade approximant, b_0 first.
_PADE = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0)


def _pade(a: np.ndarray, s: int) -> np.ndarray:
    """r_13(2^-s A)^(2^s) for a stack a of n x n matrices."""
    b = _PADE
    eye = np.eye(a.shape[-1])
    a = a * 2.0 ** -s                     # exact; np.ldexp rejects complex
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    # I + 2 (V - U)^-1 U: the identity enters exactly, so where a row and
    # column of U vanish (the zero rows of a Van Loan block, the affine 1
    # of the Bloch propagator) the diagonal stays exactly 1 through the
    # squarings instead of gaining 2^s roundings
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    return r


def expm(a) -> np.ndarray:
    """e^A for a real or complex n x n matrix or a stack (..., n, n) of
    them; real input gives a real result.

    A matrix with a non-finite entry, or a 1-norm that needs more than
    _MAX_SQUARINGS squarings, gives a matrix of NaN, and one whose
    exponential overflows gives inf or NaN entries; none raises.
    """
    a = np.asarray(a)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    stack = a.reshape(-1, *a.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0)
        # the least s >= 0 with norm / 2^s <= theta_13, exactly
        mant, exp = np.frexp(norm / _THETA)
    s = np.maximum(exp - (mant == 0.5), 0)
    key = np.where(np.isfinite(norm) & (s <= _MAX_SQUARINGS), s, -1)
    out = np.empty_like(stack)
    for k in set(key.tolist()):           # np.unique would import numpy.ma
        rows = np.flatnonzero(key == k)
        out[rows] = _pade(stack[rows], k) if k >= 0 else math.nan
    return out.reshape(a.shape)


def expm_frechet(a, e):
    """(e^A, L(A, E)), where L(A, E) is the Frechet derivative of e^A along
    E: the upper blocks of the exponential of [[A, E], [0, A]] (C. F. Van
    Loan, IEEE TAC 23:395, 1978).  A and E broadcast, so a stack of
    matrices and directions takes one `expm` call."""
    a, e = np.broadcast_arrays(a, e)
    n = a.shape[-1]
    big = np.zeros(a.shape[:-2] + (2 * n, 2 * n), np.result_type(a, e, 0.0))
    big[..., :n, :n] = big[..., n:, n:] = a
    big[..., :n, n:] = e
    big = expm(big)
    return big[..., :n, :n], big[..., :n, n:]
