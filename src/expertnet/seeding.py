"""Deterministic random-stream derivation.

Every random draw in the package comes from a numpy PCG64 generator seeded
through a SeedSequence built from (master seed, integer tags).  Reusing a tag
path reproduces the stream bit for bit on one platform, and distinct tag paths
give statistically independent streams.  Strings (method names, grid axes) are
folded to 64-bit tags with blake2b, never with Python's salted hash().
"""

import hashlib

import numpy as np

from .errors import ConfigurationError

# Stream tags. Changing any of these changes every derived stream, so they are
# part of the reproducibility contract.
STREAM_DATA = 1
STREAM_NOISE_TRAIN = 2
STREAM_NOISE_VAL = 3
STREAM_INIT = 4
STREAM_SHUFFLE = 5
STREAM_SUBSAMPLE = 6
STREAM_TRAIN = 7


def check_seed(seed: int, what: str = "seeds") -> None:
    """Reject a seed outside [0, 2**64), the range of every seed the package derives."""
    if not 0 <= seed < 2**64:
        raise ConfigurationError(f"{what} must be in [0, 2**64), got {seed}")


def stable_hash64(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def derive_seedseq(seed: int, *tags: int) -> np.random.SeedSequence:
    check_seed(seed, "seed")
    return np.random.SeedSequence([seed, *tags])


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(derive_seedseq(seed, *tags))


def derive_seed(seed: int, *tags: int) -> int:
    """Fold a tagged stream back into a plain 64-bit seed."""
    lo, hi = derive_seedseq(seed, *tags).generate_state(2, np.uint32)
    return int(hi) << 32 | int(lo)
