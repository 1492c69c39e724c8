"""Bin distance, detokenization at bin centers, and the integer-token rule."""

import numpy as np
import pytest

from specdec.action_space import (
    CHUNK_SIZE,
    DimensionBounds,
    bin_distance,
    detokenize,
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

    def test_returns_a_tuple_of_floats(self):
        values = detokenize([0, 1, 2, 3, 4, 5, 6], SYMMETRIC)
        assert type(values) is tuple
        assert all(type(v) is float for v in values)

    def test_every_bin_maps_to_its_center_inside_its_bin(self):
        """Each value is bin k's center and lies in [low + k*w, low + (k+1)*w)."""
        for bounds in (
            SYMMETRIC,
            DimensionBounds(),
            DimensionBounds(low=(0.013,) * 7, high=(0.29,) * 7),
        ):
            for k in range(256):
                values = detokenize([k] * CHUNK_SIZE, bounds)
                for value, low, high in zip(values, bounds.low, bounds.high):
                    width = (high - low) / 256
                    assert value == low + (k + 0.5) * width
                    assert low + k * width <= value < low + (k + 1) * width


class TestIntegerTokens:
    """Tokens are read by ``operator.index``, as the rest of the engine reads them."""

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3"], ids=["float", "np-float", "str"])
    def test_detokenize_rejects_non_integer_tokens(self, bad):
        with pytest.raises(TypeError):
            detokenize([bad] + [0] * (CHUNK_SIZE - 1), SYMMETRIC)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3"], ids=["float", "np-float", "str"])
    def test_bin_distance_rejects_non_integer_tokens(self, bad):
        with pytest.raises(TypeError):
            bin_distance(bad, 0)
        with pytest.raises(TypeError):
            bin_distance(0, bad)

    def test_integer_like_tokens_are_accepted(self):
        chunk = [np.int64(3), True, False, 3, 1, 0, np.int64(255)]
        assert detokenize(chunk, SYMMETRIC) == detokenize([3, 1, 0, 3, 1, 0, 255], SYMMETRIC)
        assert bin_distance(np.int64(137), True) == 136
        assert type(bin_distance(np.int64(137), np.int64(128))) is int


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
