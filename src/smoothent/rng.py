"""Reproducible random streams.

All randomness in the package flows through PCG64 generators keyed by
``numpy.random.SeedSequence``.  Independent substreams are derived from a
single 64-bit user seed through spawn keys, so that

* the same (seed, inputs) always produce bitwise-identical results,
* adding work units (e.g. another mixture center, another MI term) never
  perturbs the draws of existing units, and
* parallel evaluation of substreams is safe by construction: each center
  of ``plugin_entropy_mc`` reduces its own substream's draws to its own
  moments, so no block size or worker count changes the result.

``substream(seed, i, j, ...)`` returns the generator for the unit addressed
by the integer path ``(i, j, ...)``; ``derive_seed`` folds such a path into a
fresh 64-bit seed for APIs that take integer seeds.

``substream`` is the definition.  Building a generator costs about three
times a typical mixture center's 100 x 3 normals, so the Monte-Carlo kernel
builds none per center: ``_pcg64_states`` runs ``SeedSequence``'s hash
(NEP 19) for a whole block of centers in uint64 numpy arithmetic and applies
PCG64's seeding to each, and the kernel sets one reused ``PCG64``'s state to
each result in turn.  A center's draws are bitwise those of
``substream(seed, i)``.
"""

import numpy as np

__all__ = ["substream", "derive_seed"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the PCG64 generator for substream ``path`` of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def derive_seed(seed: int, *path: int) -> int:
    """Fold ``(seed, path)`` into a new 64-bit integer seed."""
    words = np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(2, np.uint32)
    return int(words[0]) | (int(words[1]) << 32)


# SeedSequence's hash constants and PCG64's 128-bit multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init, mult, first):
    """``init * mult**k mod 2**32`` for ``k = first .. first + 8``, as a uint64 column."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + 9)],
                    dtype=np.uint64)[:, None]


# the pool of a seed below 2**128 took 4 + 12 hash calls; generate_state starts afresh
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 0)
_CYCLE = np.arange(8) % 4


def _pcg64_states(seed: int, start: int, stop: int) -> list:
    """``PCG64.state`` dicts of ``substream(seed, i)`` for ``i`` in ``range(start, stop)``.

    ``SeedSequence(seed).pool`` holds the mixed seed words (and raises for a
    negative or non-integer seed); a sequence of seed words takes
    ``substream`` itself.  Each spawn word of ``i``, one below 2**32 and two
    from there on, is hashed into the four pool words, and
    ``generate_state(4, np.uint64)`` hashes those into four 64-bit words
    ``w``: both run over the whole range at once in uint64 arithmetic,
    masked to 32 bits.  PCG64 seeds itself from ``s = w0 2^64 + w1`` and
    ``inc = 2 (w2 2^64 + w3) + 1`` as ``((inc + s) M + inc) mod 2^128``.
    """
    seq = np.random.SeedSequence(seed)
    if not isinstance(seq.entropy, (int, np.integer)):
        # a sequence of seed words: their count is not hashed here
        return [substream(seed, i).bit_generator.state for i in range(start, stop)]
    words = -(-int(seq.entropy).bit_length() // 32)
    # each seed word past the pool's four took 4 more hash calls
    hash_a = _HASH_A if words <= 4 else _hash_consts(_INIT_A, _MULT_A, 4 * words)
    index = np.arange(start, stop, dtype=np.uint64)
    mixer = seq.pool.astype(np.uint64)[:, None]
    for word in range(1 + (stop > 1 << 32)):
        value = index >> (32 * word) & _MASK32
        hashed = value ^ hash_a[4 * word : 4 * word + 4]
        hashed *= hash_a[4 * word + 1 : 4 * word + 5]
        hashed &= _MASK32
        hashed ^= hashed >> 16
        mixed = mixer * _MIX_L - hashed * _MIX_R
        mixed &= _MASK32
        mixed ^= mixed >> 16
        # an index below 2**32 has one spawn word
        mixer = mixed if word == 0 else np.where(value > 0, mixed, mixer)
    out = mixer[_CYCLE] ^ _HASH_B[:8]
    out *= _HASH_B[1:]
    out &= _MASK32
    out ^= out >> 16
    w = out[0::2] | out[1::2] << 32
    states = []
    for w0, w1, w2, w3 in zip(*w.tolist()):
        inc = (w2 << 65 | w3 << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states
