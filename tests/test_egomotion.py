import numpy as np
import pytest

from bevtrack.egomotion import EgomotionTrack


class TestEgomotionTrack:
    def test_identity(self):
        t = EgomotionTrack.identity(5)
        assert len(t) == 5
        assert np.allclose(t.offsets, 0.0)

    def test_from_deltas_cumulates(self):
        t = EgomotionTrack.from_deltas(np.array([[1.0, 0.0], [0.5, -1.0]]))
        assert len(t) == 3
        assert np.allclose(t.offset(0), [0.0, 0.0])
        assert np.allclose(t.offset(1), [1.0, 0.0])
        assert np.allclose(t.offset(2), [1.5, -1.0])

    def test_first_offset_must_be_zero(self):
        with pytest.raises(ValueError):
            EgomotionTrack(np.array([[0.1, 0.0], [1.0, 0.0]]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            EgomotionTrack(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            EgomotionTrack(np.zeros((3, 3)))

    def test_frame_out_of_range(self):
        t = EgomotionTrack.identity(2)
        with pytest.raises(ValueError):
            t.offset(2)
        with pytest.raises(ValueError):
            t.offset(-1)

    def test_offsets_at_many_frames(self):
        # an (N,) array of frames, in any order and with repeats, gives (N, 2)
        t = EgomotionTrack.from_deltas(np.array([[1.0, 0.0], [0.5, -1.0]]))
        got = t.offset(np.array([2, 0, 1, 2]))
        assert got.shape == (4, 2)
        assert np.array_equal(got, [[1.5, -1.0], [0.0, 0.0], [1.0, 0.0], [1.5, -1.0]])
        with pytest.raises(ValueError, match="frame 3 outside egomotion track of length 3"):
            t.offset(np.array([0, 3, 1]))
