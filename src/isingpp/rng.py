"""Seeding discipline.

All randomness in the package flows through NumPy's PCG64 bit generator,
wrapped in ``numpy.random.Generator``. PCG64's integer stream is fixed by
the algorithm, so identical seeds give identical draws on every platform.

Independent sub-streams (one per run, per scale, per round, ...) are
derived with ``numpy.random.SeedSequence``: either ``spawn`` children of a
master sequence, or a sequence keyed on a tuple of integers. String parts
are folded in via CRC-32 so that config labels can participate in seed
derivation without ambiguity.

Per-run streams are derived in bulk. Child i of ``SeedSequence(seed)`` is
the sequence of entropy ``seed`` and spawn key ``(i,)``; PCG64 seeds from
its ``generate_state(4, np.uint64)``. Those words hash the master's pool,
which is the same for every child, with the one 32-bit spawn-key word i,
so ``child_words`` computes them for a block of children in a few uint32
numpy operations over i, the same bits as numpy's children. A key word
holds i below 2**32 only, which bounds a seed's child count.
"""

from __future__ import annotations

import zlib
from itertools import chain

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_MAX_CHILDREN = 1 << 32
_WORD_BLOCK = 256


def _hash_constants(init, mult, powers):
    """``init * mult**k`` mod 2**32 for each k of ``powers``: a
    SeedSequence hash constant after k hashes."""
    return np.array([init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in powers],
                    dtype=np.uint32)


# numpy's SeedSequence constants. Mixing the master's four pool words
# takes 16 hashes, so the spawn-key word is hashed with constants 16 to 20
# of the pool's hash, once into each pool word; the eight output words
# take constants 0 to 8 of the output hash.
_KEY_XOR = _hash_constants(0x43B0D7E5, 0x931E8875, range(16, 20))
_KEY_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, range(17, 21))
_OUT_XOR = _hash_constants(0x8B51F9DD, 0x58F38DED, range(8))
_OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, range(1, 9))
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that gives PCG64 four precomputed state words.
    It cannot spawn, so neither can a generator seeded from it."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def derive_seed(*parts) -> int:
    """Collapse a tuple of ints/strings into one 64-bit sub-seed."""
    if not parts:
        raise ParameterError("derive_seed needs at least one part")
    entropy = []
    for p in parts:
        if isinstance(p, str):
            entropy.append(zlib.crc32(p.encode("utf-8")))
        elif isinstance(p, (int, np.integer)):
            entropy.append(int(p) & _MASK64)
        else:
            raise ParameterError(f"seed parts must be int or str, got {type(p).__name__}")
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


def make_generator(seed) -> np.random.Generator:
    """PCG64 generator for ``seed``: an int or a seed sequence."""
    if not isinstance(seed, np.random.bit_generator.ISeedSequence):
        seed = np.random.SeedSequence(int(seed) & _MASK64)
    return np.random.Generator(np.random.PCG64(seed))


def child_sequences(seed, count: int):
    """``count`` independent child SeedSequences of a master seed.

    Child ``i`` is the same regardless of how many siblings are spawned
    after it, so per-run streams do not depend on execution order.
    """
    return np.random.SeedSequence(int(seed) & _MASK64).spawn(count)


def check_child_count(count: int):
    """Refuse more children than a 32-bit spawn-key word can number."""
    if count > _MAX_CHILDREN:
        raise ParameterError(f"at most 2**32 = {_MAX_CHILDREN} runs per seed, got {count}")


def child_words(seed, start: int, stop: int) -> np.ndarray:
    """(stop - start, 4) uint64, C-ordered: row j is
    ``child_sequences(seed, stop)[start + j].generate_state(4, np.uint64)``,
    for 0 <= start <= stop <= 2**32."""
    # A child pads the seed's one or two 32-bit words with zeros to the
    # four pool words before its key word; the master hashes a 0 for each
    # missing word, so its pool is every child's pool before the key.
    pool = np.random.SeedSequence(int(seed) & _MASK64).pool
    key = np.arange(start, stop, dtype=np.uint32)[:, None]
    h = (key ^ _KEY_XOR) * _KEY_MUL
    h ^= h >> 16
    pool = _MIX_L * pool - _MIX_R * h
    pool ^= pool >> 16
    out = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _OUT_XOR) * _OUT_MUL
    out ^= out >> 16
    out = out.astype(np.uint64)
    # Output words 2k and 2k + 1 are the low and high halves of word k.
    # PCG64 reads a row's memory, so the rows must be contiguous.
    return np.ascontiguousarray(out[:, 0::2] | out[:, 1::2] << 32)


def child_generators(seed, count: int):
    """Generators of the ``child_sequences(seed, count)`` streams, each
    made only when iteration reaches it, from ``child_words`` computed
    ``_WORD_BLOCK`` children at a time."""
    check_child_count(count)
    blocks = (child_words(seed, start, min(count, start + _WORD_BLOCK))
              for start in range(0, count, _WORD_BLOCK))
    return map(make_generator, map(_StateWords, chain.from_iterable(blocks)))
