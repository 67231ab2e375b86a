"""Seeding discipline.

All randomness in the package flows through NumPy's PCG64 bit generator,
wrapped in ``numpy.random.Generator``. PCG64's integer stream is fixed by
the algorithm, so identical seeds give identical draws on every platform.

Independent sub-streams (one per run, per scale, per round, ...) are
derived with ``numpy.random.SeedSequence``: either ``spawn`` children of a
master sequence, or a sequence keyed on a tuple of integers. String parts
are folded in via CRC-32 so that config labels can participate in seed
derivation without ambiguity.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1


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
    """PCG64 generator for ``seed`` (int or SeedSequence)."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed) & _MASK64)
    return np.random.Generator(np.random.PCG64(seed))


def child_sequences(seed, count: int):
    """``count`` independent child SeedSequences of a master seed.

    Child ``i`` is the same regardless of how many siblings are spawned
    after it, so per-run streams do not depend on execution order.
    """
    return np.random.SeedSequence(int(seed) & _MASK64).spawn(count)


def child_generators(seed, count: int):
    """Generators of the ``child_sequences(seed, count)`` streams, each
    made only when iteration reaches it. ``spawn`` numbers a sequence's
    children on from its last call, so spawning one at a time gives the
    same children."""
    master = np.random.SeedSequence(int(seed) & _MASK64)
    for _ in range(count):
        yield make_generator(master.spawn(1)[0])
