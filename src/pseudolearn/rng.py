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
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "stream", "normal", "STREAM_VERSION"]

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
    from scipy.special import ndtri
    u = rng.random(size)
    # random() can return exactly 0.0, where ndtri is -inf
    z = ndtri(np.clip(u, 1e-300, None))
    return loc + np.asarray(scale) * z
