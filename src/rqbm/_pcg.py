"""NumPy's seeded PCG64 streams for many seeds at once, without ``numpy.random``.

``Streams(seeds)`` draws what NumPy's ``default_rng(seed)`` draws for each
seed, and ``Streams(seeds, salt)`` what ``default_rng([salt, seed])`` draws,
bit for bit: the seed goes through NumPy's ``SeedSequence`` mixing and PCG64
seeding, and each method makes the draw of the ``Generator`` method of its
name in every lane (one lane per seed).  PCG64 steps a 128-bit LCG
s -> M s + inc and outputs each new state's XSL-RR hash, so the state k steps
on is A_k s + G_k inc (mod 2^128) (F. B. Brown, "Random Number Generation
with Arbitrary Strides", 1994): a lane's next draws come as whole arrays, in
blocks of at most ``spaces._BLOCK`` elements.  A 128-bit word is a (hi, lo)
pair of uint64 arrays.
"""
from __future__ import annotations

import operator

import numpy as np

from . import spaces

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # the LCG multiplier M


def _mul(a: int, x):
    """a x mod 2^128 for a Python int a and a (hi, lo) pair."""
    al, ah = a & _M64, a >> 64
    a0, a1 = al & _M32, al >> 32
    xh, xl = x
    x0, x1 = xl & _M32, xl >> 32
    p01, p10 = x1 * a0, x0 * a1  # the high word of al xl, from 32-bit halves
    mid = (x0 * a0 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = x1 * a1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + xh * al + xl * ah, xl * al


def _add(x, y):
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _jump(k: int) -> tuple[int, int]:
    """(A_k, G_k): k steps take s to A_k s + G_k inc (mod 2^128)."""
    a, g, am, gm = 1, 0, _MULT, 1
    while k:
        if k & 1:
            a, g = a * am & _M128, (g * am + gm) & _M128
        am, gm = am * am & _M128, (am + 1) * gm & _M128
        k >>= 1
    return a, g


def _output(hi, lo):
    """XSL-RR: the state's halves xor-ed, rotated right by its top six bits."""
    x, r = hi ^ lo, hi >> 58
    return x >> r | x << (64 - r & 63)


def _seeded(entropy: np.ndarray):
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row of a
    (lanes, k >= 4) uint32 array, as four uint64 arrays."""
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * 0x931E8875 & _M32
        v = v * h
        return v ^ v >> 16

    def mix(x, y):
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ r >> 16

    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):  # words past the pool's four
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    h, words = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h
        words.append((v ^ v >> 16).astype(np.uint64))
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


class Streams:
    """One seeded PCG64 stream per lane, drawn in lock-step."""

    def __init__(self, seeds, salt: int | None = None):
        seeds = np.array([operator.index(seed) for seed in seeds], dtype=object)
        if len(seeds) and seeds.min() < 0:
            raise ValueError("expected non-negative integer")
        # the entropy words: the salt, if any, then the seed's 32-bit words, lowest first
        lead = [] if salt is None else [np.full(len(seeds), salt)]
        count = np.array([(seed.bit_length() + 31) // 32 or 1 for seed in seeds], int) + len(lead)
        count = np.maximum(count, 4)  # zero words up to the pool's four mix in as none
        width = count.max(initial=4) - len(lead)
        entropy = np.array(lead + [seeds >> 32 * w & _M32 for w in range(width)], np.uint32).T
        seeded = np.empty((4, len(seeds)), np.uint64)
        for k in set(count.tolist()):  # a fifth word on takes more rounds
            seeded[:, count == k] = _seeded(entropy[count == k, :k])
        # PCG64 seeding: inc = 2 seq + 1, s -> M (s + inc) + inc
        self.inc = seeded[2] << 1 | seeded[3] >> 63, seeded[3] << 1 | 1
        self.state = _add(_mul(_MULT, _add(seeded[:2], self.inc)), self.inc)
        self.half = np.zeros(len(seeds), np.uint64)  # a drawn word's unused high half
        self.has_half = np.zeros(len(seeds), bool)

    def uniform(self, lo: float, hi: float, count: int) -> np.ndarray:
        """``rng.uniform(lo, hi, count)`` in every lane, as (lanes, count)."""
        lanes = len(self.half)
        out = np.empty((lanes, count))
        block = max(1, spaces._BLOCK // max(1, lanes))
        S = tuple(w[:, None] for w in _add(_mul(_MULT, self.state), self.inc))
        while S[0].shape[1] < min(count, block):  # the first block, by doubling
            m = min(S[0].shape[1], block - S[0].shape[1])
            a, g = _jump(S[0].shape[1])
            T = _add(_mul(a, (S[0][:, :m], S[1][:, :m])), [w[:, None] for w in _mul(g, self.inc)])
            S = tuple(np.concatenate(pair, axis=1) for pair in zip(S, T))
        a, g = _jump(S[0].shape[1])
        step = [w[:, None] for w in _mul(g, self.inc)]
        for done in range(0, count, block):
            if done:
                S = _add(_mul(a, S), step)
            k = min(block, count - done)
            out[:, done:done + k] = _output(S[0][:, :k], S[1][:, :k]) >> 11
            self.state = S[0][:, k - 1].copy(), S[1][:, k - 1].copy()
        out *= 1.0 / 2**53
        out *= hi - lo
        out += lo
        return out

    def _uint32(self, lanes: np.ndarray) -> np.ndarray:
        """The next 32-bit output of the given lanes: a buffered high half, or
        else the low half of a new word, whose high half is buffered."""
        out = self.half[lanes]
        new = ~self.has_half[lanes]
        fresh = lanes[new]
        S = _add(_mul(_MULT, [w[fresh] for w in self.state]), [w[fresh] for w in self.inc])
        self.state[0][fresh], self.state[1][fresh] = S
        word = _output(*S)
        self.half[fresh], out[new] = word >> 32, word & _M32
        self.has_half[lanes] = new
        return out

    def integers(self, high) -> np.ndarray:
        """``rng.integers(high)`` in every lane, by Lemire's method on the
        32-bit stream; ``high`` is one bound, or one per lane, in [1, 2^32),
        and a bound of 1 draws nothing."""
        c = np.broadcast_to(np.asarray(high, np.uint64), self.half.shape)
        if len(c) and not (c.min() >= 1 and c.max() <= _M32):
            raise ValueError("integers needs bounds in [1, 2^32)")
        m = np.zeros(len(c), np.uint64)
        todo = np.flatnonzero(c > 1)
        while len(todo):  # redraw where the low word falls under 2^32 mod c
            m[todo] = self._uint32(todo) * c[todo]
            todo = todo[m[todo] & _M32 < (2**32 - c[todo]) % c[todo]]
        return (m >> 32).astype(np.int64)
