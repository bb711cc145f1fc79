"""SCAT v1 serialization format."""

import struct

import numpy as np
import pytest
from conftest import rand_normal

from stripseg.scat import load_scat, save_scat, scat_bytes
from stripseg.tensor import Tensor


class TestFormat:
    def test_header_layout(self):
        raw = scat_bytes(np.zeros((2, 3), dtype=np.float64))
        assert raw[:4] == b"SCAT"
        assert raw[4] == 1
        assert raw[5] == 2
        assert struct.unpack("<2I", raw[6:14]) == (2, 3)
        assert len(raw) == 14 + 4 * 6

    def test_payload_is_little_endian_f32(self):
        raw = scat_bytes(np.array([1.5]))
        assert raw[10:] == struct.pack("<f", 1.5)

    def test_roundtrip_narrows_to_f32(self, tmp_path):
        arr = rand_normal((2, 3, 4, 5), seed=0)
        path = tmp_path / "t.scat"
        save_scat(path, Tensor(arr))
        back = load_scat(path)
        assert back.shape == (2, 3, 4, 5)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, arr.astype(np.float32).astype(np.float64))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.scat"
        path.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(ValueError):
            load_scat(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v2.scat"
        path.write_bytes(b"SCAT" + bytes([2, 0]))
        with pytest.raises(ValueError):
            load_scat(path)

    def test_truncated_payload_rejected(self, tmp_path):
        arr = np.zeros((4, 4))
        raw = scat_bytes(arr)
        path = tmp_path / "trunc.scat"
        path.write_bytes(raw[:-4])
        with pytest.raises(ValueError):
            load_scat(path)

    def test_extents_whose_product_wraps_int64_rejected(self, tmp_path):
        # 65536**4 == 2**64, which a product in int64 counts as 0 values
        path = tmp_path / "huge.scat"
        path.write_bytes(b"SCAT" + bytes([1, 4]) + struct.pack("<4I", *[65536] * 4))
        with pytest.raises(ValueError, match="holds 0 values, expected 18446744073709551616"):
            load_scat(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39], ids=["nan", "inf", "beyond-float32"])
    def test_value_float32_cannot_hold_is_refused(self, tmp_path, bad):
        arr = np.zeros((2, 3))
        arr[1, 2] = bad
        path = tmp_path / "bad.scat"
        with pytest.raises(ValueError, match=r"1 value\(s\) .* index \(1, 2\)"):
            save_scat(path, arr)
        assert not path.exists()

    def test_writes_are_deterministic(self, tmp_path):
        arr = rand_normal((3, 3), seed=1)
        assert scat_bytes(arr) == scat_bytes(arr.copy())
