"""Deterministic random-number plumbing.

Every stochastic component in the library (query extraction, dataset
generation, RW sampling, trawling depth selection) accepts either an integer
seed or a ``numpy.random.Generator``.  Centralising the coercion here keeps
experiments reproducible: the benchmark harness passes a single root seed and
derives independent child streams per (dataset, query, method) triple.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

RandomSource = Union[int, np.random.Generator, None]


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
    the fused backend keeps the states so it can re-materialise a
    warp's stream from scratch (wave execution re-runs a warp when its
    optimistic task quota turns out too large).  Advances the root exactly
    as :func:`spawn_generators` does, so the two are interchangeable.
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
    consumer of a clone sees the identical unspawned sequence (the hedged
    round replay in :meth:`repro.core.engine.EngineSession.run_round`
    depends on this for bit-identical estimates).
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
        rng = high - 1 - low
        if rng < 0:
            raise ValueError("high must exceed low")
        if rng > 0xFFFFFFFF:
            raise ValueError("DrawLedger only supports ranges <= 2**32")
        if rng == 0:
            return low
        if rng == 0xFFFFFFFF:
            return self._u32() + low
        rng_excl = rng + 1
        m = self._u32() * rng_excl
        leftover = m & 0xFFFFFFFF
        if leftover < rng_excl:
            threshold = (2**32 - rng_excl) % rng_excl
            while leftover < threshold:
                m = self._u32() * rng_excl
                leftover = m & 0xFFFFFFFF
        return (m >> 32) + low

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
