"""Unit tests for the segmented kernels (CVL substitute)."""

import numpy as np
import pytest

from repro.errors import VectorError
from repro.vector import segments as S


def arr(x):
    return np.asarray(x, dtype=np.int64)


class TestBasics:
    def test_seg_starts(self):
        assert S.seg_starts(arr([3, 0, 2])).tolist() == [0, 3, 3]

    def test_seg_starts_empty(self):
        assert S.seg_starts(arr([])).tolist() == []

    def test_seg_iota(self):
        assert S.seg_iota(arr([3, 0, 2])).tolist() == [0, 1, 2, 0, 1]

    def test_seg_iota_all_empty(self):
        assert S.seg_iota(arr([0, 0])).tolist() == []


class TestReductions:
    def test_seg_sum(self):
        v = arr([1, 2, 3, 4, 5])
        assert S.seg_sum(v, arr([2, 0, 3])).tolist() == [3, 0, 12]

    def test_seg_sum_empty_input(self):
        assert S.seg_sum(arr([]), arr([])).tolist() == []

    def test_seg_max(self):
        v = arr([1, 9, 3, 4])
        assert S.seg_max(v, arr([2, 2])).tolist() == [9, 4]

    def test_seg_max_empty_segment_errors(self):
        with pytest.raises(VectorError):
            S.seg_max(arr([1]), arr([1, 0]))

    def test_seg_min(self):
        v = arr([5, 2, 7, 1])
        assert S.seg_min(v, arr([3, 1])).tolist() == [2, 1]

    def test_seg_any_all(self):
        v = np.array([True, False, False, False, True])
        assert S.seg_any(v, arr([2, 2, 1])).tolist() == [True, False, True]
        assert S.seg_all(v, arr([2, 2, 1])).tolist() == [False, False, True]

    def test_seg_any_empty_segment(self):
        assert S.seg_any(np.array([], dtype=bool), arr([0])).tolist() == [False]
        assert S.seg_all(np.array([], dtype=bool), arr([0])).tolist() == [True]


class TestScans:
    def test_plus_scan_exclusive(self):
        v = arr([1, 2, 3, 4, 5])
        out = S.seg_plus_scan(v, arr([3, 2]))
        assert out.tolist() == [0, 1, 3, 0, 4]

    def test_plus_scan_with_empty_segments(self):
        v = arr([1, 2])
        out = S.seg_plus_scan(v, arr([0, 1, 0, 1]))
        assert out.tolist() == [0, 0]

    def test_plus_scan_empty(self):
        assert S.seg_plus_scan(arr([]), arr([0, 0])).tolist() == []

    def test_max_scan_inclusive(self):
        v = arr([3, 1, 4, 1, 5, 9, 2, 6])
        out = S.seg_max_scan(v, arr([4, 4]))
        assert out.tolist() == [3, 3, 4, 4, 5, 9, 9, 9]

    def test_max_scan_resets_at_segments(self):
        v = arr([9, 1, 2])
        out = S.seg_max_scan(v, arr([1, 2]))
        assert out.tolist() == [9, 1, 2]

    def test_max_scan_single_pass_sizes(self):
        rng = np.random.default_rng(0)
        v = rng.integers(-100, 100, size=50)
        counts = arr([7, 0, 13, 30])
        out = S.seg_max_scan(v, counts)
        expect = []
        pos = 0
        for c in counts:
            seg = v[pos:pos + c]
            expect.extend(np.maximum.accumulate(seg).tolist() if c else [])
            pos += c
        assert out.tolist() == expect


class TestTileAndGather:
    def test_tile_idx(self):
        assert S.tile_idx(arr([2, 1]), arr([2, 3])).tolist() == [0, 1, 0, 1, 2, 2, 2]

    def test_tile_idx_zero_reps(self):
        assert S.tile_idx(arr([2, 1]), arr([0, 2])).tolist() == [2, 2]

    def test_tile_idx_shape_mismatch(self):
        with pytest.raises(VectorError):
            S.tile_idx(arr([1]), arr([1, 2]))

    def test_gather_flat(self):
        levels = [arr([10, 20, 30])]
        out = S.gather_subtrees(levels, arr([2, 0, 0]))
        assert out[0].tolist() == [30, 10, 10]

    def test_gather_one_level(self):
        # forest: subtree sizes [2,1,3]; leaves 1..6
        levels = [arr([2, 1, 3]), arr([1, 2, 3, 4, 5, 6])]
        out = S.gather_subtrees(levels, arr([2, 0]))
        assert out[0].tolist() == [3, 2]
        assert out[1].tolist() == [4, 5, 6, 1, 2]

    def test_gather_two_levels(self):
        # [[ [1,2],[3] ], [ [4] ]] : top counts [2,1], mid [2,1,1]
        levels = [arr([2, 1]), arr([2, 1, 1]), arr([1, 2, 3, 4])]
        out = S.gather_subtrees(levels, arr([1, 0, 0]))
        assert out[0].tolist() == [1, 2, 2]
        assert out[1].tolist() == [1, 2, 1, 2, 1]
        assert out[2].tolist() == [4, 1, 2, 3, 1, 2, 3]

    def test_gather_empty_idx(self):
        levels = [arr([2, 1]), arr([1, 2, 3])]
        out = S.gather_subtrees(levels, arr([]))
        assert out[0].tolist() == []
        assert out[1].tolist() == []

    def test_concat_levels(self):
        a = [arr([1]), arr([5])]
        b = [arr([2]), arr([6, 7])]
        out = S.concat_levels(a, b)
        assert out[0].tolist() == [1, 2]
        assert out[1].tolist() == [5, 6, 7]
        # gathering subtree 1 from the pool gives b's subtree
        got = S.gather_subtrees(out, arr([1]))
        assert got[1].tolist() == [6, 7]

    def test_concat_levels_depth_mismatch(self):
        with pytest.raises(VectorError):
            S.concat_levels([arr([1])], [arr([1]), arr([2])])
