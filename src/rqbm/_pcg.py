"""NumPy's seeded PCG64 streams for many seeds at once, without ``numpy.random``.

``Streams(seeds)`` draws what ``default_rng(seed)`` draws for each seed, and
``Streams(seeds, salt)`` what ``default_rng([salt, seed])`` draws, bit for bit
(``SeedSequence`` mixing, PCG64 seeding, and each method the draw of the
``Generator`` method of its name), one lane per seed.  PCG64 steps a 128-bit LCG
s -> M s + inc and outputs each new state's XSL-RR hash; the state k steps on
is A_k s + G_k inc (mod 2^128) (F. B. Brown, "Random Number Generation with
Arbitrary Strides", 1994).  A uniform draw takes its states in blocks of at most
``spaces._BLOCK`` uint64 words, two per state: the first in two leaps of about
sqrt(block) states, each later one a block's jump on.  A 128-bit word is a
(hi, lo) pair of uint64 arrays, multiplied and added in place.
"""
from __future__ import annotations

import operator

import numpy as np

from . import spaces

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # the LCG multiplier M


def _mul(a, x):
    """x <- a x mod 2^128 in place (a is a Python int or a (hi, lo) pair); returns x."""
    ah, al = divmod(a, 1 << 64) if isinstance(a, int) else a
    a0, a1 = al & _M32, al >> 32
    xh, xl = x
    t, x0, x1 = xl * ah, xl & _M32, xl >> 32
    xh *= al
    xh += t
    xl *= al
    # xh += hi(al xl): x1 a1 + the carries of (x0 a0 >> 32) + x0 a1 < 2^64, then of + x1 a0
    t = np.right_shift(np.multiply(x0, a0, out=t), 32, out=t)
    t += np.multiply(x0, a1, out=x0)
    xh += np.right_shift(t, 32, out=x0)
    t &= _M32
    t += np.multiply(x1, a0, out=x0)
    xh += np.multiply(x1, a1, out=x1)
    xh += np.right_shift(t, 32, out=t)
    return x


def _add(x, y):
    """x <- x + y mod 2^128 in place; returns x."""
    xh, xl = x
    xl += y[1]
    xh += y[0] + (xl < y[1])
    return x


def _leap(x, inc, a: int, g: int, count: int):
    """A_jk x + G_jk inc for j < count: x is (2, 1, n, lanes), inc (2, 1, 1, lanes),
    the result (2, count n, lanes); with (A_ck, G_ck), where (a, g) = (A_k, G_k)."""
    A, G = [1], [0]
    for _ in range(count):  # jk + k steps: A_k (A_jk s + G_jk inc) + G_k inc
        A.append(A[-1] * a & _M128)
        G.append((G[-1] * a + g) & _M128)
    a_jk, g_jk = (np.array([[v >> 64 for v in w[:-1]], [v & _M64 for v in w[:-1]]], np.uint64)
                  .reshape(2, -1, 1, 1) for w in (A, G))
    x = _mul(a_jk, np.broadcast_to(x, (2, count) + x.shape[2:]).copy())
    x = _add(x, _mul(g_jk, np.broadcast_to(inc, (2, count, 1, x.shape[3])).copy()))
    return x.reshape(2, count * x.shape[2], x.shape[3]), A[-1], G[-1]


def _output(hi, lo):
    """XSL-RR: the state's halves xor-ed, rotated right by its top six bits."""
    x, r = hi ^ lo, hi >> 58
    return x >> r | x << (64 - r & 63)


def _seeded(entropy: np.ndarray):
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row of a
    (lanes, k >= 4) uint32 array, as four uint64 arrays."""
    h = 0x43B0D7E5

    def hashmix(v, mult=0x931E8875):
        nonlocal h
        v = v ^ h
        h = h * mult & _M32
        v = v * h
        return v ^ v >> 16

    def mix(x, y):
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ r >> 16

    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src, dst in ((src, dst) for src in range(4) for dst in range(4) if src != dst):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):  # words past the pool's four
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    h = 0x8B51F9DD
    words = [hashmix(pool[i % 4], 0x58F38DED).astype(np.uint64) for i in range(8)]
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
        self.inc = np.array([seeded[2] << 1 | seeded[3] >> 63, seeded[3] << 1 | 1])
        self.state = _add(_mul(_MULT, _add(seeded[:2], self.inc)), self.inc)
        self.half = np.zeros(len(seeds), np.uint64)  # a drawn word's unused high half
        self.has_half = np.zeros(len(seeds), bool)

    def uniform(self, lo: float, hi: float, count: int) -> np.ndarray:
        """``rng.uniform(lo, hi, count)`` in every lane, as (lanes, count)."""
        lanes = len(self.half)
        out = np.empty((lanes, count))
        most = max(1, min(count, spaces._BLOCK // max(2, 2 * lanes)))  # a state is two words
        r, inc = 1 << (most.bit_length() - 1) // 2, self.inc[:, None, None]
        # the first block: the next r states, then K r <= most of them, in two leaps
        S = _add(_mul(_MULT, np.array(self.state)[:, None, None]), inc)
        S, a, g = _leap(S, inc, _MULT, 1, r)
        S, a, g = _leap(S[:, None], inc, a, g, most // r)
        block, step = S.shape[1], _mul(g, self.inc[:, None].copy())
        for done in range(0, count, block):
            if done:
                _add(_mul(a, S), step)
            k = min(block, count - done)
            out[:, done:done + k] = (_output(*S[:, :k]) >> 11).T
            self.state = S[:, k - 1].copy()
        out *= 1.0 / 2**53
        out *= hi - lo
        out += lo
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
            # the next 32 bits: a buffered high half, or a new word's low half
            m[todo], new = self.half[todo], ~self.has_half[todo]
            fresh = todo[new]
            self.state[:, fresh] = S = _add(_mul(_MULT, self.state[:, fresh]), self.inc[:, fresh])
            word = _output(*S)
            m[fresh], self.half[fresh], self.has_half[todo] = word & _M32, word >> 32, new
            m[todo] *= c[todo]
            todo = todo[m[todo] & _M32 < (2**32 - c[todo]) % c[todo]]
        return (m >> 32).astype(np.int64)
