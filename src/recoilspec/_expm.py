"""Matrix exponential and its Frechet derivative, for real or complex
matrices and stacks of them.

Pade scaling and squaring (N. J. Higham, SIAM J. Matrix Anal. Appl.
26:1179, 2005): the Pade degree m in (3, 5, 7, 9, 13) is the lowest whose
bound theta_m holds the 1-norm of A; beyond theta_13, A is scaled by 2^-s
into it and the degree-13 approximant is squared s times.  A stack of
matrices is grouped by each matrix's own (m, s), so every matrix of a batch
takes the arithmetic of a single call, bit for bit.  The theta_m bounds
hold for complex matrices too, and the scaling is by the exact power 2^-s.
"""

from __future__ import annotations

import math

import numpy as np

# Pade degrees, and the largest 1-norm for which each keeps the backward
# error below the unit roundoff (Higham 2005, Table 2.3).
_DEGREES = np.array([3, 5, 7, 9, 13])
_THETAS = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                    9.504178996162932e-1, 2.097847961257068e0,
                    5.371920351148152e0])
# s squarings can amplify rounding by 2^s: past 2^s u = 1 that bound keeps
# no digit, so a matrix that needs more reads as NaN.
_MAX_SQUARINGS = 52
# Coefficients b_0 .. b_m of the [m/m] Pade approximant, b_0 first.
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def _pade(a: np.ndarray, m: int, s: int) -> np.ndarray:
    """r_m(2^-s A)^(2^s) for a stack a of n x n matrices."""
    b = _PADE[m]
    eye = np.eye(a.shape[-1])
    a = a * 2.0 ** -s                     # exact; np.ldexp rejects complex
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        powers = [eye, a2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * x for k, x in enumerate(powers))
        v = sum(b[2 * k] * x for k, x in enumerate(powers))
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
        mant, exp = np.frexp(norm / _THETAS[-1])
    s = np.maximum(exp - (mant == 0.5), 0)
    m = _DEGREES[np.minimum(np.searchsorted(_THETAS, norm), 4)]
    key = np.where(np.isfinite(norm) & (s <= _MAX_SQUARINGS), 64 * m + s, -1)
    out = np.empty_like(stack)
    for k in set(key.tolist()):           # np.unique would import numpy.ma
        rows = np.flatnonzero(key == k)
        out[rows] = _pade(stack[rows], *divmod(k, 64)) if k >= 0 else math.nan
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
