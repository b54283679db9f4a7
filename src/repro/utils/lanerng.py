"""Counter-based lane RNG: Philox4x32-10 bounded draws for whole waves.

The sequential backends replay per-warp ``Generator.integers`` calls one
warp at a time so every backend consumes the identical PCG64 stream — that
bit-identity contract costs a ~6µs numpy dispatch per warp per super-step
(DESIGN.md "Lane RNG modes").  gSWORD's GPU kernels sidestep the problem
with counter-based streams: a draw is a *pure function* of
``(warp_seed_key, draw_index)``, so there is no generator state to mutate,
ship, or replay, and one vectorized pass can produce bounded draws for all
warps in a wave at once.

This module is that idiom in numpy:

* :func:`philox4x32` — the Philox4x32-10 block cipher (Salmon et al.,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11), validated against
  the Random123 known-answer vectors in ``tests/test_lanerng.py``;
* :class:`LaneKey` / :func:`lane_key` / :func:`warp_keys` — 64-bit per-warp
  keys derived from the same spawned ``SeedSequence`` children the
  sequential mode feeds to PCG64, so both modes share one seeding story;
* :func:`philox_bounded` — bounded integer draws via the exact
  ``(word * bound) >> 32`` multiply-shift reduction, one numpy pass for an
  arbitrary mix of warps/counters/bounds;
* :class:`LaneRNG` — a duck-typed ``.integers``-only stand-in for
  ``np.random.Generator`` used on the scalar warp path, drawing from the
  same counter sequence the fused batch paths consume.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Sequence, Union

import numpy as np

from repro.utils.rng import GeneratorState

__all__ = [
    "LaneKey",
    "LaneRNG",
    "PHILOX_ROUNDS",
    "lane_key",
    "philox4x32",
    "philox_bounded",
    "philox_words",
    "warp_keys",
]

PHILOX_ROUNDS = 10

# Philox4x32 multipliers and Weyl key increments (Random123 reference).
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)


class LaneKey(NamedTuple):
    """A warp's counter-stream identity: two 32-bit Philox key words."""

    k0: int
    k1: int


def lane_key(state: Union[GeneratorState, LaneKey]) -> LaneKey:
    """Derive a warp's :class:`LaneKey` from a spawned generator state.

    Accepts the same ``SeedSequence``-or-int states
    :func:`repro.utils.rng.spawn_generator_states` produces (so counter mode
    reuses the sequential mode's seeding tree verbatim), plus an existing
    :class:`LaneKey`, which passes through — shard workers that already
    received keys can call this unconditionally.

    ``SeedSequence.generate_state`` is a pure function of the sequence, so
    deriving a key never mutates anything: re-running a warp or hedging a
    round replays bit-identically with no ``clone_state`` gymnastics.
    """
    if isinstance(state, LaneKey):
        return state
    if isinstance(state, np.random.SeedSequence):
        seq = state
    else:
        seq = np.random.SeedSequence(int(state))
    k0, k1 = seq.generate_state(2, np.uint32)
    return LaneKey(int(k0), int(k1))


def warp_keys(states: Sequence[Union[GeneratorState, LaneKey]]) -> np.ndarray:
    """Stack per-warp keys into a ``uint32[n, 2]`` table for batch draws."""
    out = np.empty((len(states), 2), dtype=np.uint32)
    for i, state in enumerate(states):
        out[i, 0], out[i, 1] = lane_key(state)
    return out


def philox4x32(
    counters: np.ndarray, keys: np.ndarray, rounds: int = PHILOX_ROUNDS
) -> np.ndarray:
    """Philox4x32 block cipher over arrays of counter/key blocks.

    ``counters`` is ``uint32-compatible [n, 4]``, ``keys`` is ``[n, 2]``
    (or broadcastable); returns the full ``uint32[n, 4]`` output block.
    All arithmetic runs in uint64 so the 32x32→64 multiplies are exact.
    """
    ctr = np.asarray(counters, dtype=np.uint64)
    key = np.asarray(keys, dtype=np.uint64)
    c0, c1, c2, c3 = ctr[..., 0], ctr[..., 1], ctr[..., 2], ctr[..., 3]
    k0, k1 = key[..., 0].copy(), key[..., 1].copy()
    for _ in range(rounds):
        p0 = _M0 * c0
        p1 = _M1 * c2
        hi0, lo0 = p0 >> _SH32, p0 & _MASK32
        hi1, lo1 = p1 >> _SH32, p1 & _MASK32
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return np.stack([c0, c1, c2, c3], axis=-1).astype(np.uint32)


def philox_words(k0: np.ndarray, k1: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """First output word of Philox for draw index ``idx`` under key (k0, k1).

    The 64-bit draw index is split across the first two counter words;
    counter words 2 and 3 stay zero.  Returns ``uint64`` values in
    ``[0, 2**32)`` — uint64 so callers can multiply by a bound exactly.
    """
    return _philox_word_np(k0, k1, idx)


def _philox_word_np(
    k0: np.ndarray, k1: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    # Allocation-free rounds: every op writes into one of six persistent
    # buffers.  The dependency order makes this safe — a counter word's
    # buffer is only overwritten after its old value fed this round's
    # multiply or xor.  Roughly halves the wall cost of a bounded-draw
    # pass versus the naive out-of-place loop, which is most of what the
    # fused WanderJoin gate measures in counter mode.
    idx = np.asarray(idx, dtype=np.uint64)
    shape = np.broadcast_shapes(np.shape(k0), np.shape(k1), idx.shape)
    k0a = np.broadcast_to(np.asarray(k0, np.uint64), shape).ravel().copy()
    k1a = np.broadcast_to(np.asarray(k1, np.uint64), shape).ravel().copy()
    idxa = np.ascontiguousarray(np.broadcast_to(idx, shape).ravel())
    c0 = idxa & _MASK32
    c1 = idxa >> _SH32
    c2 = np.zeros_like(c0)
    c3 = np.zeros_like(c0)
    p0 = np.empty_like(c0)
    p1 = np.empty_like(c0)
    for _ in range(PHILOX_ROUNDS):
        np.multiply(_M0, c0, out=p0)
        np.multiply(_M1, c2, out=p1)
        np.right_shift(p1, _SH32, out=c0)
        c0 ^= c1
        c0 ^= k0a
        np.bitwise_and(p1, _MASK32, out=c1)
        np.right_shift(p0, _SH32, out=c2)
        c2 ^= c3
        c2 ^= k1a
        np.bitwise_and(p0, _MASK32, out=c3)
        k0a += _W0
        k0a &= _MASK32
        k1a += _W1
        k1a &= _MASK32
    if shape == ():
        return c0[0]
    return c0.reshape(shape)


def philox_bounded(
    k0: np.ndarray, k1: np.ndarray, idx: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Bounded draws ``int64 in [0, bounds)`` for each (key, counter, bound).

    The reduction is the exact multiply-shift ``(word * bound) >> 32`` —
    identical in vectorized uint64 and Python-int scalar arithmetic for any
    ``bound < 2**32``, so the scalar :class:`LaneRNG` path and this batch
    path are bit-identical by construction.  All inputs broadcast to a
    common 1-D shape.
    """
    k0a = np.ascontiguousarray(np.asarray(k0, dtype=np.uint64))
    k1a = np.ascontiguousarray(np.asarray(k1, dtype=np.uint64))
    idxa = np.ascontiguousarray(np.asarray(idx, dtype=np.uint64))
    bnda = np.ascontiguousarray(np.asarray(bounds, dtype=np.uint64))
    k0a, k1a, idxa, bnda = np.broadcast_arrays(k0a, k1a, idxa, bnda)
    word = _philox_word_np(k0a, k1a, idxa)
    return ((word * bnda) >> _SH32).astype(np.int64)


class LaneRNG:
    """Counter-stream stand-in for ``np.random.Generator`` on warp paths.

    Only implements the single method the warp sampling path consumes —
    ``integers(0, bound)`` — drawing successive counters from this warp's
    Philox stream.  Scalar bounds return a Python int and consume one
    counter; array bounds consume one counter per element in order, exactly
    matching how the fused batch paths account draws, so a warp
    re-run through *any* backend replays the identical value sequence.
    """

    __slots__ = ("key", "counter")

    def __init__(
        self, key: Union[GeneratorState, LaneKey], counter: int = 0
    ) -> None:
        self.key = lane_key(key)
        self.counter = int(counter)

    def integers(self, low: int, high: Any = None) -> Any:
        if high is None:
            low, high = 0, low
        if low != 0:
            raise ValueError("LaneRNG only supports low=0 bounded draws")
        if np.ndim(high) == 0:
            bound = int(high)
            if bound <= 0:
                raise ValueError("bound must be positive")
            word = int(
                _philox_word_np(
                    np.uint64(self.key.k0),
                    np.uint64(self.key.k1),
                    np.uint64(self.counter),
                )
            )
            self.counter += 1
            return (word * bound) >> 32
        bounds = np.asarray(high, dtype=np.int64)
        n = bounds.shape[0]
        idx = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return philox_bounded(
            np.uint64(self.key.k0), np.uint64(self.key.k1), idx, bounds
        )


def spawn_lane_rngs(
    states: Sequence[Union[GeneratorState, LaneKey]],
) -> List[LaneRNG]:
    """One fresh :class:`LaneRNG` per spawned state, counters at zero."""
    return [LaneRNG(s) for s in states]
