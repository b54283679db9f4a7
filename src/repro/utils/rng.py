"""Deterministic random-number plumbing.

Every stochastic component in the library (query extraction, dataset
generation, RW sampling, trawling depth selection) accepts either an integer
seed or a ``numpy.random.Generator``.  Centralising the coercion here keeps
experiments reproducible: the benchmark harness passes a single root seed and
derives independent child streams per (dataset, query, method) triple.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

RandomSource = Union[int, np.random.Generator, None]

#: Largest bound numpy draws on its 32-bit Lemire path: ``integers(0, n)``
#: for ``n <= 2**32`` consumes 32-bit half-words, larger bounds take a
#: 64-bit path that :func:`lemire_u32` and :class:`WarpStreams` do not
#: replay.
MAX_U32_BOUND = 1 << 32


def as_generator(source: RandomSource) -> np.random.Generator:
    """Coerce ``source`` into a ``numpy.random.Generator``.

    ``None`` yields a fresh non-deterministic generator; an ``int`` seeds a
    PCG64 stream; an existing generator is returned unchanged.
    """
    if isinstance(source, np.random.Generator):
        return source
    if source is None:
        return np.random.default_rng()
    if isinstance(source, (int, np.integer)):
        return np.random.default_rng(int(source))
    raise TypeError(f"cannot build a Generator from {type(source).__name__}")


#: A replayable child-stream handle: either a ``SeedSequence`` child or a
#: drawn integer seed (the fallback for bit generators without a seed
#: sequence).  ``numpy.random.default_rng`` accepts both, and rebuilding a
#: generator from the same state yields a bit-identical stream.
GeneratorState = Union[np.random.SeedSequence, int]


def spawn_generator_states(source: RandomSource, count: int) -> List[GeneratorState]:
    """Derive ``count`` replayable child-stream states.

    This is :func:`spawn_generators` minus the final ``default_rng`` call:
    the fused backend ships the states, not generators, so each warp's
    stream is built wherever the warp runs — in-process or in a shard
    worker.  Advances the root exactly as :func:`spawn_generators` does, so
    the two are interchangeable.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    root = as_generator(source)
    seed_seq = getattr(root.bit_generator, "seed_seq", None)
    if seed_seq is None:
        # Exotic bit generators without a seed sequence: fall back to drawn
        # integer seeds.  Draw the full 64-bit space — a 63-bit draw would
        # silently halve it and double the birthday-collision rate between
        # child streams.
        return [
            int(root.integers(0, 2**64, dtype=np.uint64)) for _ in range(count)
        ]
    return list(seed_seq.spawn(count))


def clone_state(state: GeneratorState) -> GeneratorState:
    """A fresh, replay-safe copy of a spawned child state.

    ``SeedSequence.spawn`` mutates the sequence (its child counter
    advances), so handing one ``SeedSequence`` object to two consumers
    that each spawn sub-streams from it gives them *different*
    grandchildren — not a replay.  Cloning rebuilds the sequence from its
    ``(entropy, spawn_key)`` identity with the counter reset, so every
    consumer of a clone sees the identical unspawned sequence.  A round's
    launch capture and ``repro flight-replay`` depend on this to re-run a
    captured round bit-identically.
    """
    if isinstance(state, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=state.entropy,
            spawn_key=state.spawn_key,
            pool_size=state.pool_size,
        )
    return state


def generator_from_state(state: GeneratorState) -> np.random.Generator:
    """Materialise a generator from a spawned child state (replayable)."""
    return np.random.default_rng(state)


def spawn_generators(source: RandomSource, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Uses ``SeedSequence.spawn`` so children never collide even when the same
    root seed is reused across experiment runs.
    """
    return [
        generator_from_state(state)
        for state in spawn_generator_states(source, count)
    ]


def lemire_u32(next_u32: Callable[[], int], bound: int) -> int:
    """One draw from ``[0, bound)`` for ``1 < bound <= 2**32``: numpy's
    bounded-integer path, Lemire's multiply-shift over the bit generator's
    32-bit draws ``next_u32()`` with the exact rejection threshold
    ``2**32 mod bound`` (evaluated only when the low word falls below the
    bound).  ``bound == 2**32`` never rejects and returns the draw itself,
    numpy's full-range special case."""
    m = next_u32() * bound
    if (m & 0xFFFFFFFF) < bound:
        threshold = (MAX_U32_BOUND - bound) % bound
        while (m & 0xFFFFFFFF) < threshold:
            m = next_u32() * bound
    return m >> 32


class DrawLedger:
    """Bit-exact chunked replay of a generator's scalar draw loop.

    The synthetic-graph generators draw one value per Python-loop iteration
    (``int(gen.integers(...))``, ``gen.random()``), each paying the full
    numpy call dispatch.  Rewriting them as array draws would change which
    stream positions feed which decision — and every pinned dataset (and
    therefore every pinned baseline) is a function of those exact draws.

    The ledger keeps the *values* and the generator's *final state*
    bit-identical while replacing per-draw dispatch with chunked
    ``bit_generator.random_raw`` prefetches and explicit draw accounting:

    * ``random()`` consumes one raw 64-bit word — numpy's
      ``next_uint64 >> 11`` mapping;
    * ``integers(0, n)`` for ``n <= 2**32`` replays numpy's 32-bit Lemire
      path, including the persistent half-word buffer PCG64 keeps across
      calls (the low 32 bits of a raw word are used first, the high half is
      buffered — serialized as the ``has_uint32``/``uinteger`` state keys)
      and the threshold-rejection tail;
    * :meth:`close` realigns the underlying bit generator to exactly the
      words consumed, so interleaving ledgered loops with direct generator
      calls stays deterministic.

    Bit generators without a dict state carrying the half-word buffer (or
    without ``random_raw``) fall back to direct pass-through calls.
    """

    __slots__ = (
        "_gen", "_bg", "_entry", "_chunk",
        "_words", "_i", "_has32", "_buf32", "_active",
    )

    def __init__(self, gen: np.random.Generator, chunk: int = 4096) -> None:
        self._gen = gen
        bg = gen.bit_generator
        self._bg = bg
        self._chunk = max(int(chunk), 16)
        try:
            state = bg.state
        except (AttributeError, TypeError):
            state = None
        inner = state.get("state") if isinstance(state, dict) else None
        if (
            not isinstance(state, dict)
            or "has_uint32" not in state
            or "uinteger" not in state
            or not hasattr(bg, "random_raw")
            or not isinstance(inner, dict)
        ):
            self._active = False
            return
        self._active = True
        self._entry = state
        self._has32 = bool(state["has_uint32"])
        self._buf32 = int(state["uinteger"])
        self._words: List[int] = []
        self._i = 0

    def __enter__(self) -> "DrawLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _word(self) -> int:
        if self._i == len(self._words):
            self._words.extend(
                int(w) for w in self._bg.random_raw(self._chunk)
            )
        w = self._words[self._i]
        self._i += 1
        return w

    def _u32(self) -> int:
        if self._has32:
            self._has32 = False
            return self._buf32
        w = self._word()
        self._has32 = True
        self._buf32 = w >> 32
        return w & 0xFFFFFFFF

    def random(self) -> float:
        if not self._active:
            return float(self._gen.random())
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int) -> int:
        """One draw from ``[low, high)`` — numpy's bounded-integer path."""
        if not self._active:
            return int(self._gen.integers(low, high))
        bound = high - low
        if bound <= 0:
            raise ValueError("high must exceed low")
        if bound > MAX_U32_BOUND:
            raise ValueError("DrawLedger only supports ranges <= 2**32")
        if bound == 1:
            return low
        return lemire_u32(self._u32, bound) + low

    def close(self) -> None:
        """Realign the bit generator to the draws actually consumed."""
        if not self._active:
            return
        self._bg.state = self._entry
        if self._i:
            self._bg.random_raw(self._i)
        st = self._bg.state
        st["has_uint32"] = int(self._has32)
        st["uinteger"] = int(self._buf32)
        self._bg.state = st
        self._active = False


#: ``take(name, shape, dtype)``: where :class:`WarpStreams` gets its
#: buffers (``FusedArena.take`` in the fused runners).
BufferSource = Callable[[str, Tuple[int, ...], type], np.ndarray]

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_TWO32 = np.uint64(MAX_U32_BOUND)

#: Half-words a wave's stream buffer holds at most, unless every row's
#: minimum (``16 * width``) needs more: 8 MiB of prefetched words.
_STREAM_BUDGET = 1 << 20


def _empty(name: str, shape: Tuple[int, ...], dtype: type) -> np.ndarray:
    return np.empty(shape, dtype=dtype)


_RANKS: Dict[int, np.ndarray] = {}


def _lane_ranks(width: int) -> np.ndarray:
    """Upper-triangular ones: ``drawing @ _lane_ranks(W)`` counts, per
    lane, the drawing lanes up to and including it."""
    tri = _RANKS.get(width)
    if tri is None:
        tri = _RANKS[width] = np.triu(np.ones((width, width)))
    return tri


class WarpStreams:
    """The lane draws of a wave of warps, one vectorised pass per step.

    Row ``k`` is warp ``k``'s PCG64, built from its spawned state, and
    :meth:`draw` yields exactly what ``Generator.integers(0,
    bounds[bounds > 0])`` on that generator would, lanes in order, for
    every stepping row at once.  numpy draws a bound ``n <= 2**32`` by
    Lemire's method over 32-bit half-words — the low half of each raw
    64-bit word first, the high half next — and a bound of 1 consumes
    nothing.  So each row prefetches raw words as a buffer of half-words,
    and a step gathers each drawing lane's half-word by its rank among the
    row's drawing lanes, multiplies once and runs the acceptance test on
    all lanes together.  The exact threshold is only computed when some
    low word falls below its bound, and a row that really rejects
    (probability below ``bound / 2**32`` per lane) is replayed lane by
    lane through :func:`lemire_u32`.

    ``span``, when given, is how many draws a row may take over the
    stream's life: a row's buffer holds that many when the wave's budget
    allows, so it never refills but for rejections.  Otherwise a row
    refills when a step could drain it.

    A row's position is :meth:`drawn`, the 32-bit draws it has consumed:
    a stream started at ``drawn = h`` advances its PCG64 by ``h // 2``
    words and skips one half when ``h`` is odd, which continues exactly
    like a stream that consumed ``h`` draws.
    """

    __slots__ = (
        "_bgs", "_width", "_cap", "_tri", "_flat", "_row0", "_last", "_lim",
        "_end", "_base",
    )

    def __init__(
        self,
        states: Sequence[GeneratorState],
        drawn: Optional[Sequence[int]] = None,
        take: BufferSource = _empty,
        width: int = 32,
        span: Optional[int] = None,
    ) -> None:
        K = len(states)
        self._width = W = int(width)
        self._tri = _lane_ranks(W)
        cap = 16 * W
        if span is not None:
            cap = min(max(cap, _STREAM_BUDGET // max(K, 1)), span + 2)
        self._cap = cap = max(cap + cap % 2, 2 * W + 2)
        self._flat = take("rng_halves", (K, cap), np.uint64).reshape(-1)
        # Per-row registers, as flat buffer indices: ``_row0`` the row's
        # first slot, ``_last`` the last half-word consumed, ``_end`` past
        # the last one fetched, ``_lim`` the last ``_last`` that still has
        # room for a full step; ``_base`` counts the draws before the
        # row's first slot.
        regs = take("rng_rows", (5, K), np.int64)
        self._row0, self._last, self._lim, self._end, self._base = regs
        np.multiply(np.arange(K), cap, out=self._row0)
        np.add(self._row0, cap, out=self._end)
        np.subtract(self._end, W + 1, out=self._lim)
        np.subtract(self._row0, 1, out=self._last)
        self._base.fill(0)
        self._bgs = []
        for k, state in enumerate(states):
            bg = generator_from_state(state).bit_generator
            h = int(drawn[k]) if drawn is not None else 0
            if h:
                bg.advance(h // 2)
                self._base[k] = h - h % 2
                self._last[k] += h % 2
            self._bgs.append(bg)
            words = bg.random_raw(cap // 2).astype("<u8", copy=False)
            self._flat[k * cap:(k + 1) * cap] = words.view("<u4")

    def _refill(self, k: int) -> None:
        """Keep row ``k``'s unread half-words and top the row up."""
        r0 = int(self._row0[k])
        p, e = int(self._last[k]) + 1, int(self._end[k])
        left = e - p
        if left:
            self._flat[r0:r0 + left] = self._flat[p:e]
        n = (self._cap - left) // 2
        words = self._bgs[k].random_raw(n)
        e = r0 + left + 2 * n
        self._flat[r0 + left:e] = words.astype("<u8", copy=False).view("<u4")
        self._base[k] += p - r0
        self._last[k] = r0 - 1
        self._end[k] = e
        self._lim[k] = e - 1 - self._width

    def drawn(self, rows: np.ndarray) -> np.ndarray:
        """32-bit draws each of ``rows`` has consumed since its spawn."""
        return self._base[rows] + self._last[rows] + 1 - self._row0[rows]

    def draw(self, rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Lane indices for the ``(rows, lanes)`` int64 bound matrix: a
        draw from ``[0, bound)`` for bounds above 1, 0 for bound 1 and -1
        for bound 0.  Raises ``ValueError`` on a bound above ``2**32``."""
        drawing = bounds > 1
        L = bounds.shape[1]
        rank = drawing @ (self._tri if L == self._width else self._tri[:L, :L])
        last = self._last[rows]
        short = last > self._lim[rows]
        if short.any():
            for k in rows[short].tolist():
                self._refill(k)
            last = self._last[rows]
        # Each drawing lane's half-word: its row's next, offset by its rank
        # among the row's drawing lanes (other lanes read a neighbour), so
        # the last lane's index is the row's new position.
        at = rank.astype(np.intp)
        at += last[:, None]
        self._last[rows] = at[:, -1]
        m = self._flat.take(at, mode="clip")
        b = bounds.view(np.uint64)
        m *= b
        suspect = (m & _U32) < b
        if suspect.any():
            suspect &= drawing
            if suspect.any():
                self._reject(rows, bounds, drawing, m, suspect, last)
        m >>= _SHIFT32
        # A bound of 1 yields 0 and a bound of 0 yields -1 (their products
        # shift to 0); every drawn value is below its bound.
        return np.minimum(m.view(np.int64), bounds - 1)

    def _reject(self, rows, bounds, drawing, m, suspect, last) -> None:
        """Lemire's exact acceptance test on the ``suspect`` lanes; each
        row with a rejected lane is replayed lane by lane from ``last``
        into ``m`` (as products, so the caller's shift applies)."""
        sb = bounds[suspect]
        if int(sb.max()) > MAX_U32_BOUND:
            raise ValueError(
                "WarpStreams replays numpy's 32-bit draw: bounds must be "
                "<= 2**32"
            )
        sr = np.nonzero(suspect)[0]
        ub = sb.view(np.uint64)
        rejected = (m[suspect] & _U32) < (_TWO32 - ub) % ub
        flat = self._flat
        for i in np.unique(sr[rejected]).tolist():
            k = int(rows[i])
            self._last[k] = last[i]

            def next_u32() -> int:
                p = int(self._last[k]) + 1
                if p == self._end[k]:
                    self._refill(k)
                    p = int(self._last[k]) + 1
                self._last[k] = p
                return int(flat[p])

            for lane in np.nonzero(drawing[i])[0].tolist():
                m[i, lane] = lemire_u32(next_u32, int(bounds[i, lane])) << 32


def derive_seed(source: RandomSource, *tokens: object) -> int:
    """Derive a stable 63-bit seed from a root source and hashable tokens.

    Used by the bench harness to give each (dataset, query, method) cell its
    own stream while keeping the whole experiment reproducible from one seed.
    """
    base: Optional[int]
    if isinstance(source, (int, np.integer)):
        base = int(source)
    else:
        base = int(as_generator(source).integers(0, 2**63))
    acc = base & 0x7FFFFFFFFFFFFFFF
    for token in tokens:
        # FNV-1a style mixing over the repr; stable across processes because
        # it avoids PYTHONHASHSEED-dependent hash().
        for ch in repr(token).encode("utf-8"):
            acc ^= ch
            acc = (acc * 0x100000001B3) & 0x7FFFFFFFFFFFFFFF
    return acc
