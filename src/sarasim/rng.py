"""Deterministic per-DMA random streams.

Each generator gets its own PCG64 stream keyed by (master seed, DMA id), so
adding or removing a DMA never perturbs the draws seen by the others.

A stream is pure Python and gives, draw for draw, what numpy's
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(crc32(dma_id),))))``
gives for the three draws the traffic generators make: ``random()``,
``integers(n)`` and ``exponential(scale)``. The algorithms and constants are
numpy's (BSD-3-Clause): SeedSequence's hash mixing, PCG64 with the XSL-RR
output (O'Neill, HMC-CS-2014-0905), Lemire's bounded integers and the
exponential ziggurat (Marsaglia and Tsang, J. Stat. Softw. 2000).

``ziggurat_exp.txt`` holds the ziggurat's tables: the 256 integers of
numpy's ``ke_double``, then the 256 doubles of ``we_double`` and the 256 of
``fe_double`` as ``float.hex()`` strings. They were read byte for byte from
numpy 2.4.6: ``ar x numpy/random/lib/libnpyrandom.a``, then, in
``src_distributions_distributions.c.o``, each symbol's 2,048 bytes at the
``.rodata`` file offset (``readelf -S``) plus the symbol's value
(``readelf -s``), little-endian. They are not recomputed from their formula,
which in doubles rounds many entries differently.
"""

from __future__ import annotations

import math
import zlib
from importlib import resources

M32 = 0xFFFFFFFF
M64 = (1 << 64) - 1
M128 = (1 << 128) - 1

# SeedSequence mixing constants
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
POOL_SIZE = 4

PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
ZIGGURAT_EXP_R = 7.69711747013104972


def _load_tables() -> tuple:
    words = resources.files("sarasim").joinpath(
        "ziggurat_exp.txt").read_text(encoding="ascii").split()
    return ([int(w) for w in words[:256]],
            [float.fromhex(w) for w in words[256:512]],
            [float.fromhex(w) for w in words[512:]])


KE, WE, FE = _load_tables()


def _seed_words(entropy: list) -> list:
    """SeedSequence's pool for `entropy` (32-bit words), expanded by
    ``generate_state(4, uint64)``."""
    hash_const = INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & M32
        value = value * hash_const & M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (MIX_MULT_L * x - MIX_MULT_R * y) & M32
        return r ^ r >> 16

    pool = [hashmix(word) for word in entropy[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = INIT_B
    state = []  # generate_state(4, uint64) draws 8 uint32 words
    for i in range(8):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & M32
        value = value * hash_const & M32
        state.append(value ^ value >> 16)
    # uint32 pairs, low word first
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class DmaStream:
    """One PCG64 stream with numpy's `Generator` draws."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, initstate: int, initseq: int):
        self._inc = (initseq << 1 | 1) & M128
        # state 0 stepped once is inc
        self._state = ((self._inc + initstate) * PCG_MULT + self._inc) & M128
        self._half = None  # high half of the last 64-bit draw split by _next32

    def _next64(self) -> int:
        s = self._state = (self._state * PCG_MULT + self._inc) & M128
        x = (s >> 64 ^ s) & M64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        r = self._next64()
        self._half = r >> 32
        return r & M32

    def random(self) -> float:
        """A uniform float in [0, 1)."""
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        """A uniform int in [0, n), for 1 <= n <= 2**63."""
        if not 1 <= n <= 1 << 63:
            raise ValueError(f"integers bound {n} is outside 1..2**63")
        if n == 1:
            return 0
        if n < 1 << 32:
            return self._lemire(self._next32, n, 32)
        if n == 1 << 32:
            return self._next32()
        return self._lemire(self._next64, n, 64)

    @staticmethod
    def _lemire(draw, n: int, bits: int) -> int:
        mask = (1 << bits) - 1
        m = draw() * n
        if m & mask < n:
            threshold = ((1 << bits) - n) % n
            while m & mask < threshold:
                m = draw() * n
        return m >> bits

    def exponential(self, scale: float) -> float:
        """An exponential float of mean `scale`."""
        if math.copysign(1.0, scale) < 0 and not math.isnan(scale):
            raise ValueError("scale < 0")
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return scale * x
            if idx == 0:
                return scale * (ZIGGURAT_EXP_R - math.log1p(-self.random()))
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < math.exp(-x):
                return scale * x


def dma_stream(master_seed: int, dma_id: str) -> DmaStream:
    if master_seed < 0:
        raise ValueError(f"seed {master_seed} is negative")
    entropy = []
    n = master_seed
    while True:
        entropy.append(n & M32)
        n >>= 32
        if not n:
            break
    # zero-padded to the pool size because a spawn key follows
    entropy += [0] * (POOL_SIZE - len(entropy))
    entropy.append(zlib.crc32(dma_id.encode("utf-8")))
    v0, v1, v2, v3 = _seed_words(entropy)
    return DmaStream(v0 << 64 | v1, v2 << 64 | v3)
