"""Tokenization, bin distance, and round-trip guarantees."""

import numpy as np
import pytest

from specdec.action_space import (
    CHUNK_SIZE,
    DimensionBounds,
    bin_distance,
    detokenize,
    tokenize,
)

SYMMETRIC = DimensionBounds(low=(-1.0,) * 7, high=(1.0,) * 7)


class TestBinDistance:
    def test_identity(self):
        assert bin_distance(137, 137) == 0

    def test_trace_replay_pairs(self):
        # Token pairs reused by the trace-replay scenario; forced arithmetic.
        assert bin_distance(137, 128) == 9
        assert bin_distance(98, 109) == 11
        assert bin_distance(128, 137) == 9

    def test_metric_axioms_exhaustive(self):
        """d is a metric on bin IDs, checked for every triple with V=256."""
        ids = np.arange(256)
        d = np.abs(ids[:, None] - ids[None, :]).astype(np.int16)
        assert (np.diag(d) == 0).all()
        assert (d == d.T).all()
        # Triangle inequality: min over b of d(a,b)+d(b,c) >= d(a,c).
        via = (d[:, :, None].astype(np.int32) + d[None, :, :]).min(axis=1)
        assert (via >= d).all()


class TestDetokenize:
    def test_bin_zero_symmetric_bounds(self):
        chunk = [0] * CHUNK_SIZE
        values = detokenize(chunk, SYMMETRIC)
        assert values[0] == -1 + 0.5 * (2 / 256)
        np.testing.assert_allclose(values, -0.99609375)

    def test_bin_max_symmetric_bounds(self):
        values = detokenize([255] * CHUNK_SIZE, SYMMETRIC)
        np.testing.assert_allclose(values, 0.99609375)

    def test_unit_width_bins(self):
        bounds = DimensionBounds(low=(0.0,) * 7, high=(256.0,) * 7)
        values = detokenize([128] * CHUNK_SIZE, bounds)
        np.testing.assert_allclose(values, 128.5)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            detokenize([1, 2, 3], SYMMETRIC)

    def test_rejects_out_of_range_token(self):
        with pytest.raises(ValueError):
            detokenize([0, 0, 0, 0, 0, 0, 256], SYMMETRIC)


class TestTokenize:
    def test_roundtrip_of_bin_zero_center(self):
        bins = tokenize([-0.99609375] * CHUNK_SIZE, SYMMETRIC)
        assert (bins == 0).all()

    def test_upper_edge_clamps_to_last_bin(self):
        bins = tokenize([1.0] * CHUNK_SIZE, SYMMETRIC)
        assert (bins == 255).all()

    def test_out_of_range_values_clamp(self):
        low = tokenize([-5.0] * CHUNK_SIZE, SYMMETRIC)
        high = tokenize([5.0] * CHUNK_SIZE, SYMMETRIC)
        assert (low == 0).all()
        assert (high == 255).all()

    def test_roundtrip_error_within_half_bin(self):
        """tokenize-then-detokenize moves any in-range value by <= width/2."""
        rng = np.random.default_rng(7)
        bounds = DimensionBounds()
        low = np.asarray(bounds.low)
        high = np.asarray(bounds.high)
        half_width = (high - low) / 256 / 2
        for _ in range(10_000 // CHUNK_SIZE):
            values = rng.uniform(low, high)
            recovered = detokenize(tokenize(values, bounds), bounds)
            assert (np.abs(recovered - values) <= half_width + 1e-12).all()

    def test_bins_roundtrip_exactly_all_vocab(self):
        """tokenize(detokenize(k)) == k for every bin, several bounds."""
        for bounds in (
            SYMMETRIC,
            DimensionBounds(),
            DimensionBounds(low=(0.013,) * 7, high=(0.29,) * 7),
        ):
            for k in range(256):
                chunk = [k] * CHUNK_SIZE
                assert (tokenize(detokenize(chunk, bounds), bounds) == k).all()


class TestBounds:
    def test_default_bounds_are_valid(self):
        DimensionBounds()

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            DimensionBounds(low=(0.0,) * 7, high=(0.0,) * 7)

    def test_from_pairs_roundtrip(self):
        pairs = [[-1.0, 1.0]] * 7
        assert DimensionBounds.from_pairs(pairs).as_pairs() == pairs

    def test_from_pairs_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            DimensionBounds.from_pairs([[-1.0, 1.0]] * 6)
