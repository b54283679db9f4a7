"""Tests for RNG plumbing, timing helpers, and the exception hierarchy."""

import time

import numpy as np
import pytest

from repro import errors
from repro.utils.rng import (
    MAX_U32_BOUND,
    DrawLedger,
    WarpStreams,
    as_generator,
    clone_state,
    derive_seed,
    generator_from_state,
    spawn_generator_states,
    spawn_generators,
)
from repro.utils.timing import Stopwatch, format_ms


class TestRng:
    def test_int_seed_deterministic(self):
        a = as_generator(7).integers(0, 1000, size=5)
        b = as_generator(7).integers(0, 1000, size=5)
        assert list(a) == list(b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_bad_source_rejected(self):
        with pytest.raises(TypeError):
            as_generator("seed")

    def test_spawn_independent_streams(self):
        children = spawn_generators(3, 4)
        draws = [tuple(c.integers(0, 10**9, size=3)) for c in children]
        assert len(set(draws)) == 4  # all distinct

    def test_spawn_deterministic(self):
        a = [tuple(g.integers(0, 100, 2)) for g in spawn_generators(5, 3)]
        b = [tuple(g.integers(0, 100, 2)) for g in spawn_generators(5, 3)]
        assert a == b

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_spawn_fallback_without_seed_sequence(self):
        # A bit generator whose ``seed_seq`` attribute is absent exercises
        # the drawn-integer-seed fallback.
        class NoSeedSeqBG:
            def __init__(self, gen):
                self._gen = gen

            def __getattr__(self, name):
                if name == "seed_seq":
                    raise AttributeError(name)
                return getattr(self._gen.bit_generator, name)

        class ExoticGenerator(np.random.Generator):
            pass

        inner = np.random.default_rng(11)
        gen = ExoticGenerator(inner.bit_generator)
        gen.__class__.bit_generator = property(  # type: ignore[assignment]
            lambda self: NoSeedSeqBG(inner)
        )
        try:
            states = spawn_generator_states(gen, 8)
        finally:
            del ExoticGenerator.bit_generator
        assert len(states) == 8
        assert all(isinstance(s, int) for s in states)
        # Full 64-bit space: drawn seeds must be able to exceed 2**63.
        assert all(0 <= s < 2**64 for s in states)
        twin = np.random.default_rng(11)
        expected = [int(twin.integers(0, 2**64, dtype=np.uint64)) for _ in range(8)]
        assert states == expected
        # int states are valid replayable seeds.
        a = generator_from_state(states[0]).integers(0, 1000, size=4)
        b = generator_from_state(states[0]).integers(0, 1000, size=4)
        assert list(a) == list(b)

    def test_clone_state_int_passthrough(self):
        assert clone_state(12345) == 12345
        # Cloned SeedSequence replays identically with the child counter reset.
        seq = spawn_generator_states(3, 1)[0]
        seq.spawn(2)  # advance the original's child counter
        c1, c2 = clone_state(seq), clone_state(seq)
        g1 = [s.generate_state(2).tolist() for s in c1.spawn(2)]
        g2 = [s.generate_state(2).tolist() for s in c2.spawn(2)]
        assert g1 == g2

    def test_derive_seed_stable_and_sensitive(self):
        s1 = derive_seed(42, "eu2005", 16, "dense", 0)
        s2 = derive_seed(42, "eu2005", 16, "dense", 0)
        s3 = derive_seed(42, "eu2005", 16, "dense", 1)
        s4 = derive_seed(43, "eu2005", 16, "dense", 0)
        assert s1 == s2
        assert s1 != s3 and s1 != s4
        assert 0 <= s1 < 2**63


class TestDrawLedger:
    def test_integers_match_generator_exactly(self):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            twin = np.random.default_rng(seed)
            with DrawLedger(gen) as led:
                got = [led.integers(0, 1 + seed * 37 + i % 101) for i in range(500)]
            want = [int(twin.integers(0, 1 + seed * 37 + i % 101)) for i in range(500)]
            assert got == want
            assert gen.bit_generator.state == twin.bit_generator.state

    def test_random_matches_generator_exactly(self):
        gen = np.random.default_rng(99)
        twin = np.random.default_rng(99)
        with DrawLedger(gen) as led:
            got = [led.random() for _ in range(100)]
        want = [float(twin.random()) for _ in range(100)]
        assert got == want
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_interleaved_segments_realign(self):
        # Ledgered segments interleaved with direct generator calls must
        # leave the stream exactly where scalar draws would have.
        gen = np.random.default_rng(7)
        twin = np.random.default_rng(7)
        got, want = [], []
        for seg in range(5):
            with DrawLedger(gen) as led:
                got.extend(led.integers(0, 13 + seg) for _ in range(17))
                got.append(led.random())
            got.extend(int(x) for x in gen.integers(0, 1000, size=3))
            want.extend(int(twin.integers(0, 13 + seg)) for _ in range(17))
            want.append(float(twin.random()))
            want.extend(int(x) for x in twin.integers(0, 1000, size=3))
        assert got == want
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_half_word_buffer_carries_across_entry(self):
        # An odd number of 32-bit draws leaves PCG64 holding a buffered
        # half-word; a ledger opened in that state must consume it first.
        gen = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        gen.integers(0, 1000)
        twin.integers(0, 1000)
        assert gen.bit_generator.state["has_uint32"]
        with DrawLedger(gen) as led:
            got = [led.integers(0, 97) for _ in range(9)]
        want = [int(twin.integers(0, 97)) for _ in range(9)]
        assert got == want
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_degenerate_and_full_ranges(self):
        gen = np.random.default_rng(1)
        twin = np.random.default_rng(1)
        with DrawLedger(gen) as led:
            assert led.integers(5, 6) == 5  # single-value range: no draw
            full = [led.integers(0, 2**32) for _ in range(6)]
            with pytest.raises(ValueError):
                led.integers(3, 2)
            with pytest.raises(ValueError):
                led.integers(0, 2**32 + 1)
        assert int(twin.integers(5, 6)) == 5
        assert full == [int(twin.integers(0, 2**32)) for _ in range(6)]
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_passthrough_for_exotic_bit_generator(self):
        # A generator whose state lacks the half-word buffer keys falls back
        # to direct calls (no batching, still correct).
        gen = np.random.Generator(np.random.MT19937(3))
        twin = np.random.Generator(np.random.MT19937(3))
        with DrawLedger(gen) as led:
            assert not led._active
            got = [led.integers(0, 50) for _ in range(20)]
            got.append(led.random())
        want = [int(twin.integers(0, 50)) for _ in range(20)]
        want.append(float(twin.random()))
        assert got == want


def _numpy_draws(gens, rows, bounds):
    """The reference: each row's generator draws ``integers(0, b[b > 0])``
    (0 for a bound of 1, -1 where the bound is 0)."""
    out = np.full(bounds.shape, -1, dtype=np.int64)
    for i, r in enumerate(rows.tolist()):
        m = bounds[i] > 0
        if m.any():
            out[i, m] = gens[r].integers(0, bounds[i][m])
    return out


class TestWarpStreams:
    """The wave-wide lane draw replays ``Generator.integers`` exactly."""

    K, W = 9, 32

    def _pair(self, seed, K=None):
        states = spawn_generator_states(seed, K or self.K)
        gens = [generator_from_state(s) for s in states]
        return states, gens

    def test_matches_generator_integers(self):
        """Random row subsets per step; bounds 0 and 1 mixed with small
        bounds and bounds near 3e9 (which reject ~30% of draws); enough
        steps that every row refills several times; odd draw counts so
        the half-word carry crosses steps."""
        states, gens = self._pair(11)
        streams = WarpStreams(states)
        pick = np.random.default_rng(3)
        drawn = np.zeros(self.K, dtype=np.int64)
        for step in range(300):
            n = int(pick.integers(1, self.K + 1))
            rows = np.sort(pick.choice(self.K, size=n, replace=False))
            bounds = pick.integers(0, 40, size=(n, self.W))
            big = pick.random((n, self.W)) < 0.2
            bounds[big] = pick.integers(
                2_900_000_000, MAX_U32_BOUND + 1, size=int(big.sum())
            )
            bounds[pick.random((n, self.W)) < 0.3] = pick.integers(0, 2)
            if step % 3 == 0:
                # A single drawing lane: an odd count per step.
                bounds[:, 1:] = 0
                bounds[:, 0] = 7
            got = streams.draw(rows, bounds)
            assert np.array_equal(got, _numpy_draws(gens, rows, bounds)), step
            drawn[rows] += (bounds > 1).sum(axis=1)
        consumed = streams.drawn(np.arange(self.K))
        # Rejections consumed extra draws, and rows crossed refills.
        assert (consumed > drawn).any()
        assert consumed.min() > 16 * self.W
        assert (consumed % 2).any()

    def test_degenerate_bounds_consume_nothing(self):
        states, gens = self._pair(2, K=2)
        streams = WarpStreams(states)
        rows = np.array([0, 1])
        bounds = np.array([[0, 1, 0, 1], [1, 1, 0, 0]], dtype=np.int64)
        got = streams.draw(rows, bounds)
        assert got.tolist() == [[-1, 0, -1, 0], [0, 0, -1, -1]]
        assert streams.drawn(rows).tolist() == [0, 0]
        bounds = np.array([[5, 1, 0, 9], [2**32, 3, 1, 0]], dtype=np.int64)
        got = streams.draw(rows, bounds)
        assert np.array_equal(got, _numpy_draws(gens, rows, bounds))
        assert streams.drawn(rows).tolist() == [2, 2]

    @pytest.mark.parametrize("h", [0, 1, 2, 37, 600, 1025])
    def test_start_at_drawn_continues_the_stream(self, h):
        """A stream started at ``drawn = h`` continues exactly like one
        that consumed ``h`` draws (odd ``h`` skips a buffered half)."""
        (state,) = spawn_generator_states(17, 1)
        ref = WarpStreams([state])
        rows = np.array([0])
        while int(ref.drawn(rows)[0]) < h:
            left = h - int(ref.drawn(rows)[0])
            bounds = np.zeros((1, self.W), dtype=np.int64)
            bounds[0, : min(left, self.W)] = 1000
            ref.draw(rows, bounds)
        assert int(ref.drawn(rows)[0]) == h
        resumed = WarpStreams([state], [h])
        assert int(resumed.drawn(rows)[0]) == h
        pick = np.random.default_rng(h)
        for _ in range(40):
            bounds = pick.integers(0, 3_000_000_000, size=(1, self.W))
            assert np.array_equal(
                resumed.draw(rows, bounds), ref.draw(rows, bounds)
            )
        assert resumed.drawn(rows).tolist() == ref.drawn(rows).tolist()

    def test_bound_above_32_bits_raises(self):
        streams = WarpStreams(spawn_generator_states(1, 2))
        bounds = np.array([[3, MAX_U32_BOUND + 1], [2, 2]], dtype=np.int64)
        with pytest.raises(ValueError):
            streams.draw(np.array([0, 1]), bounds)


class TestTiming:
    def test_format_ms(self):
        assert format_ms(0.5) == "500.0us"
        assert format_ms(12.3) == "12.3ms"
        assert format_ms(2500.0) == "2.50s"
        with pytest.raises(ValueError):
            format_ms(-1)

    def test_stopwatch_laps(self):
        sw = Stopwatch().start()
        time.sleep(0.01)
        lap = sw.lap("a")
        assert lap >= 5.0
        assert sw.laps["a"] == pytest.approx(lap)
        sw.lap("a")  # accumulates
        assert sw.laps["a"] > lap
        assert sw.total_ms() == pytest.approx(sum(sw.laps.values()))

    def test_stopwatch_requires_start(self):
        with pytest.raises(RuntimeError):
            Stopwatch().lap("x")
        with pytest.raises(RuntimeError):
            Stopwatch().elapsed_ms()


class TestErrors:
    def test_hierarchy(self):
        for cls in (
            errors.GraphError,
            errors.QueryError,
            errors.CandidateGraphError,
            errors.EnumerationBudgetExceeded,
            errors.SimulationError,
            errors.ConfigError,
        ):
            assert issubclass(cls, errors.ReproError)

    def test_budget_error_carries_partial_count(self):
        err = errors.EnumerationBudgetExceeded(41)
        assert err.partial_count == 41
        assert "41" in str(err)
