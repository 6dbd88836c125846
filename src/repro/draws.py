"""Exact-draw helpers: numpy ``Generator`` draws without the per-call cost.

Each helper consumes the generator's bits in the same order as the numpy
call it names and returns the same value, so the substrate generators keep
their streams while skipping numpy's argument parsing and ``p`` checks.
:class:`WordStream` goes further: it replays PCG64's 32-bit draws from raw
words read in bulk and then commits the generator's state, so a scalar
loop such as the buddy allocator's draws without a ctypes call per draw,
and :func:`pair_draws` decodes a whole run of the peering loop from its
words at once.  ``tests/test_draws.py`` pins each one against numpy,
generator state too.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

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


#: Raw words a :class:`WordStream` reads from its bit generator at a time.
WORD_CHUNK = 4096


class WordStream:
    """``next_uint32`` and ``next_double`` of a 64-bit bit generator (such
    as PCG64) replayed from its raw words: a 32-bit draw takes the buffered
    high half of the last split word if there is one, else splits a new
    word (low half out, high half buffered); a double takes the top 53
    bits of a whole word and leaves the buffer alone.

    The words are read :data:`WORD_CHUNK` or more at a time with
    ``random_raw`` (``words``, and as Python ints ``ints``; ``pos`` is the
    next unread one), and the words before ``pos`` are dropped at the next
    read.  The generator runs ahead of the stream until :meth:`commit`
    leaves it where the same draws made one at a time leave it.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.bits = rng.bit_generator
        self.start = self.bits.state
        if "has_uint32" not in self.start:
            raise ValueError(f"{self.start['bit_generator']} has no 32-bit half-word buffer")
        self.words, self.ints = np.zeros(0, np.uint64), []
        self.dropped = self.pos = 0
        self.has, self.last = bool(self.start["has_uint32"]), int(self.start["uinteger"])

    def mark(self) -> Tuple[int, bool, int]:
        """Where the stream stands: the words consumed and the buffer."""
        return self.dropped + self.pos, self.has, self.last

    def commit(self, mark: Optional[Tuple[int, bool, int]] = None) -> None:
        """Leave the generator where the draws up to ``mark`` (default:
        the stream's position) leave it: the words consumed up to there
        and the half-word buffer as it stood."""
        read, has, last = self.mark() if mark is None else mark
        state = dict(self.start)
        state["has_uint32"], state["uinteger"] = int(has), int(last)
        self.bits.state = state
        self.bits.random_raw(read, output=False)

    def reserve(self, count: int) -> None:
        """Hold at least ``count`` unread words."""
        short = count - (len(self.ints) - self.pos)
        if short > 0:
            fresh = self.bits.random_raw(max(short, WORD_CHUNK))
            self.words = np.concatenate((self.words[self.pos :], fresh))
            self.ints = self.words.tolist()
            self.dropped += self.pos
            self.pos = 0

    def word(self) -> int:
        if self.pos == len(self.ints):
            self.reserve(1)
        self.pos += 1
        return self.ints[self.pos - 1]

    def uint32(self) -> int:
        if self.has:
            self.has = False
            return self.last
        w = self.word()
        self.has, self.last = True, w >> 32
        return w & _LOW32

    def bounded(self, n: int) -> int:
        """``integers(0, n)`` for ``1 < n < 2**32``: Lemire's method, as
        :func:`integer_sampler`."""
        m = self.uint32() * n
        if m & _LOW32 < n:
            threshold = (0x100000000 - n) % n
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
    stream = WordStream(rng)
    begin = stream.mark()
    threshold = (0x100000000 - n) % n
    big_n = np.uint64(n)
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
            end_pos.append(stream.mark()[0] + 2 + 2 * np.arange(k))
            end_has.append(np.full(k, stream.has))
            end_last.append(high[:k])
            stream.pos += 2 * k
            stream.last = int(high[k - 1])
            done += k
        if done < count:
            x = stream.bounded(n)
            y = stream.bounded(n)
            u = stream.double() if x != y else np.nan
            a_parts.append(np.array([x], np.int64))
            b_parts.append(np.array([y], np.int64))
            u_parts.append(np.array([u]))
            read, has, last = stream.mark()
            end_pos.append(np.array([read]))
            end_has.append(np.array([has]))
            end_last.append(np.array([last], np.uint64))
            done += 1
    pos, has, last = (np.concatenate(p) for p in (end_pos, end_has, end_last))
    stream.commit(begin)

    def commit(k: int) -> None:
        if not 0 <= k <= count:
            raise ValueError(f"commit({k}) outside the {count} decoded attempts")
        stream.commit((int(pos[k - 1]), bool(has[k - 1]), int(last[k - 1])) if k else begin)

    return np.concatenate(a_parts), np.concatenate(b_parts), np.concatenate(u_parts), commit
