"""Exact-draw helpers: numpy ``Generator`` draws without the per-call cost.

Each helper consumes the generator's bits in the same order as the numpy
call it names and returns the same value, so the substrate generators keep
their streams while skipping numpy's argument parsing and ``p`` checks.
:func:`pair_draws` goes further: it decodes a whole run of a draw loop
from the bit generator's raw words at once.  ``tests/test_draws.py`` pins
each one against numpy, generator state too.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

_LOW32 = 0xFFFFFFFF

#: What turns the top 53 bits of a word into ``next_double``'s value.
_DOUBLE_UNIT = 2.0 ** -53


def integer_sampler(rng: np.random.Generator) -> Callable[[int], int]:
    """``draw(n)``, exactly ``int(rng.integers(0, n))``: for ``1 < n < 2**32``
    numpy's Lemire rejection (arXiv 1805.10941) over the bit generator's
    ``next_uint32``, no draw for ``n == 1``, and numpy itself otherwise."""
    # ``draw`` holds ``rng``, so the state that ``state`` points to lives.
    funcs = rng.bit_generator.ctypes
    next_uint32, state = funcs.next_uint32, funcs.state

    def draw(n: int) -> int:
        if not 1 < n <= 0xFFFFFFFF:
            return 0 if n == 1 else int(rng.integers(0, n))
        m = next_uint32(state) * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * n
        return m >> 32

    return draw


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice`` inverts for the probabilities ``p``."""
    cdf = np.add.accumulate(p)
    cdf /= cdf[-1]
    return cdf


def weighted_choice(rng: np.random.Generator, p: np.ndarray) -> int:
    """Exactly ``int(rng.choice(len(p), p=p))``: one uniform, inverted."""
    return int(choice_cdf(p).searchsorted(rng.random(), side="right"))


def weighted_sample(rng: np.random.Generator, p: np.ndarray, k: int) -> List[int]:
    """Exactly ``rng.choice(len(p), size=k, replace=False, p=p).tolist()``.

    Like numpy it draws ``k`` uniforms, keeps each index's first hit, and
    redraws the rest with the hits' weights zeroed; it raises before any
    draw when fewer than ``k`` weights are positive, so redraws end.
    """
    if np.count_nonzero(p > 0) < k:
        raise ValueError("Fewer non-zero entries in p than size")
    picks: List[int] = []
    while len(picks) < k:
        if picks:
            p = p.copy()
            p[picks] = 0
        x = rng.random(k - len(picks))
        for pick in choice_cdf(p).searchsorted(x, side="right").tolist():
            if pick not in picks:
                picks.append(pick)
    return picks


class _WordStream:
    """``next_uint32`` and ``next_double`` of a 64-bit bit generator (such
    as PCG64) replayed from its raw words: a 32-bit draw takes the buffered
    high half of the last split word if there is one, else splits a new
    word (low half out, high half buffered); a double takes the top 53
    bits of a whole word and leaves the buffer alone."""

    def __init__(self, bits: np.random.BitGenerator, words: np.ndarray,
                 has: bool, last: int) -> None:
        self.bits, self.words = bits, words
        self.pos, self.has, self.last = 0, has, last

    def word(self) -> int:
        if self.pos == len(self.words):
            self.reserve(64)
        self.pos += 1
        return int(self.words[self.pos - 1])

    def reserve(self, count: int) -> None:
        """Hold at least ``count`` unread words."""
        short = count - (len(self.words) - self.pos)
        if short > 0:
            # The generator stands right after the words already read out.
            self.words = np.concatenate((self.words, self.bits.random_raw(short)))

    def uint32(self) -> int:
        if self.has:
            self.has = False
            return self.last
        w = self.word()
        self.has, self.last = True, w >> 32
        return w & _LOW32

    def bounded(self, n: int, threshold: int) -> int:
        """``integers(0, n)``: Lemire's method, as :func:`integer_sampler`."""
        m = self.uint32() * n
        while m & _LOW32 < threshold:
            m = self.uint32() * n
        return m >> 32

    def double(self) -> float:
        return (self.word() >> 11) * _DOUBLE_UNIT


def pair_draws(
    rng: np.random.Generator, n: int, count: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[int], None]]:
    """The next ``count`` attempts of the loop ::

        a = int(rng.integers(0, n)); b = int(rng.integers(0, n))
        if a != b:
            u = rng.random()

    decoded at once from ``rng.bit_generator.random_raw``, for a bit
    generator that serves 32-bit draws from the halves of its 64-bit words
    (PCG64, ``default_rng``'s) and ``1 < n < 2**32``.

    Returns ``(a, b, u, commit)``: the ``int64`` draws, the uniforms
    (``nan`` where ``a == b``, which draws none) and ``commit(k)``, which
    leaves ``rng`` where the loop leaves it after its first ``k`` attempts:
    the same words consumed and the same half-word buffer
    (``has_uint32`` and ``uinteger``).  Until ``commit`` is called, ``rng``
    is where it was.

    Between two ints that are equal or that Lemire's method rejects, every
    attempt takes one word for its two ints (with the buffer's parity
    unchanged) and the next for its uniform; such runs are decoded in
    numpy, and each equal or rejected pair is decoded one draw at a time.
    """
    if not 1 < n <= _LOW32:
        raise ValueError(f"pair_draws needs 1 < n < 2**32, got {n}")
    bits = rng.bit_generator
    start = bits.state
    if "has_uint32" not in start:
        raise ValueError(f"{start['bit_generator']} has no 32-bit half-word buffer")
    threshold = (0x100000000 - n) % n
    big_n = np.uint64(n)
    stream = _WordStream(
        bits, bits.random_raw(2 * count), bool(start["has_uint32"]), int(start["uinteger"])
    )
    a_parts, b_parts, u_parts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    # Per attempt: the words read, the buffer flag and the buffered half
    # after it (what ``commit`` restores).
    end_pos, end_has = [np.zeros(0, np.int64)], [np.zeros(0, bool)]
    end_last = [np.zeros(0, np.uint64)]
    done = 0
    while done < count:
        left = count - done
        stream.reserve(2 * left)
        pair = stream.words[stream.pos : stream.pos + 2 * left : 2]
        low, high = pair & np.uint64(_LOW32), pair >> np.uint64(32)
        if stream.has:
            first, second = np.concatenate(([np.uint64(stream.last)], high[:-1])), low
        else:
            first, second = low, high
        m1, m2 = first * big_n, second * big_n
        a, b = m1 >> np.uint64(32), m2 >> np.uint64(32)
        event = (a == b) | ((m1 & np.uint64(_LOW32)) < threshold)
        event |= (m2 & np.uint64(_LOW32)) < threshold
        k = int(event.argmax()) if event.any() else left
        if k:
            doubles = stream.words[stream.pos + 1 : stream.pos + 2 * k : 2]
            a_parts.append(a[:k].astype(np.int64))
            b_parts.append(b[:k].astype(np.int64))
            u_parts.append((doubles >> np.uint64(11)).astype(np.float64) * _DOUBLE_UNIT)
            end_pos.append(stream.pos + 2 + 2 * np.arange(k))
            end_has.append(np.full(k, stream.has))
            end_last.append(high[:k])
            stream.pos += 2 * k
            stream.last = int(high[k - 1])
            done += k
        if done < count:
            x = stream.bounded(n, threshold)
            y = stream.bounded(n, threshold)
            u = stream.double() if x != y else np.nan
            a_parts.append(np.array([x], np.int64))
            b_parts.append(np.array([y], np.int64))
            u_parts.append(np.array([u]))
            end_pos.append(np.array([stream.pos]))
            end_has.append(np.array([stream.has]))
            end_last.append(np.array([stream.last], np.uint64))
            done += 1
    pos, has, last = (np.concatenate(p) for p in (end_pos, end_has, end_last))
    bits.state = start

    def commit(k: int) -> None:
        if not 0 <= k <= count:
            raise ValueError(f"commit({k}) outside the {count} decoded attempts")
        state = dict(start)
        if k:
            state["has_uint32"], state["uinteger"] = int(has[k - 1]), int(last[k - 1])
        bits.state = state
        if k:
            bits.random_raw(int(pos[k - 1]))

    return np.concatenate(a_parts), np.concatenate(b_parts), np.concatenate(u_parts), commit
