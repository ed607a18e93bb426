"""Reproducible random streams.

Every stochastic component in the package draws from a Philox
counter-based generator keyed by explicit integer parts (master seed,
replication index, fold index, ...).  Streams are therefore independent
of thread or process scheduling: the same (seed, key parts) always
produces the same draws, and parallel workers cannot perturb each
other's streams.

Normal variates are produced by inversion (``ndtri`` applied to Philox
uniforms) rather than by a rejection sampler, so the number of uniforms
consumed per variate is fixed and the stream layout is stable.

``ndtri`` is the Cephes algorithm that ``scipy.special.ndtri`` runs, with
the same constants and order of operations: a rational function of
p - 1/2 in the centre, and rational functions of 1/sqrt(-2 log p) in the
tails.  The arithmetic is numpy's, which rounds each step as C does; the
tail logarithms are libm's (``math.log``), because numpy's vectorised
``log`` rounds some values differently.  The result equals scipy's bit
for bit, so the stream does not depend on whether or which scipy is
installed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["derive_seed", "stream", "normal", "ndtri", "STREAM_VERSION"]

# Bump if the stream layout (generator family or draw order) ever changes.
STREAM_VERSION = 1


def _as_words(parts) -> list:
    """Map key parts (ints or short string tags) to 64-bit words.

    String tags are hashed with sha256, not ``hash()``, so the mapping
    survives interpreter restarts and PYTHONHASHSEED.
    """
    words = []
    for p in parts:
        if isinstance(p, str):
            digest = hashlib.sha256(p.encode("utf-8")).digest()
            words.append(int.from_bytes(digest[:8], "little"))
        else:
            words.append(int(p) & 0xFFFFFFFFFFFFFFFF)
    return words


def derive_seed(*parts) -> int:
    """Derive a 63-bit seed from key parts, deterministically.

    Uses numpy's SeedSequence hashing so nearby inputs (seed, seed+1)
    give unrelated outputs.
    """
    ss = np.random.SeedSequence(_as_words(parts))
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def stream(*parts) -> np.random.Generator:
    """Return a Philox generator keyed by the given parts."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_as_words(parts))))


def normal(rng: np.random.Generator, size=None, loc=0.0, scale=1.0):
    """Normal draws via inversion of Philox uniforms.

    ``scale`` may be an array (heteroskedastic noise); it is broadcast
    against the uniform draws.
    """
    u = rng.random(size)
    # random() can return exactly 0.0, where ndtri is -inf
    z = ndtri(np.clip(u, 1e-300, None))
    return loc + np.asarray(scale) * z


# Cephes ndtri.c: sqrt(2 pi), exp(-2) and the rational functions (P, Q) of
# the centre and of the tails, for sqrt(-2 log p) below 8 (p > exp(-32)) and
# from 8 on.  P is padded with leading zeros and Q's implicit leading 1 is
# written out; neither changes a bit of Cephes' polevl/p1evl steps.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_PQ_CENTRE = np.array([
    [0.0, 0.0, 0.0, 0.0, -5.99633501014107895267e1, 9.80010754185999661536e1,
     -5.66762857469070293439e1, 1.39312609387279679503e1, -1.23916583867381258016e0],
    [1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
     -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
     1.59056225126211695515e1, -1.18331621121330003142e0]])
_PQ_TAIL = np.array([
    [4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
     4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
     -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4],
    [1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
     1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
     -3.80806407691578277194e-2, -9.33259480895457427372e-4]])
_PQ_FAR = np.array([
    [3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
     1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
     3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9],
    [1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
     2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
     2.89247864745380683936e-6, 6.79019408009981274425e-9]])


def _rational(x, pq):
    """x P(x) / Q(x), both by Horner's rule in one (2, n) array."""
    ans = pq[:, :1] * x + pq[:, 1:2]
    for c in pq.T[2:, :, None]:
        ans *= x
        ans += c
    return x * ans[0] / ans[1]


def _log(a):
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


def ndtri(p):
    """Standard normal quantile, bit for bit ``scipy.special.ndtri``.

    -inf at 0, inf at 1 and NaN outside [0, 1].
    """
    p = np.asarray(p, dtype=float)
    x = np.where(np.isnan(p), -p, np.nan)  # Cephes' tail branch negates a NaN
    x[p == 0.0] = -np.inf
    x[p == 1.0] = np.inf
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    central = y > _EXP_M2
    c = y[central] - 0.5
    x[central] = (c + c * _rational(c * c, _PQ_CENTRE)) * _S2PI
    tail = (y > 0.0) & ~central
    r = np.sqrt(-2.0 * _log(y[tail]))
    z = 1.0 / r
    x1 = _rational(z, _PQ_TAIL)
    far = r >= 8.0
    if far.any():
        x1[far] = _rational(z[far], _PQ_FAR)
    x[tail] = r - _log(r) / r - x1
    np.negative(x, out=x, where=tail & ~upper)
    return x[()]
