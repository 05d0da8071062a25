"""Binary PGM export of fields and label maps."""

import numpy as np
import pytest

import ccspectral as cc


def test_pgm_header_and_payload(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "img.pgm"
    cc.write_pgm(img, path)
    data = path.read_bytes()
    assert data == b"P5\n4 3\n255\n" + img.tobytes()


def test_pgm_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        cc.write_pgm(np.zeros((2, 2)), tmp_path / "f.pgm")  # float dtype
    with pytest.raises(ValueError):
        cc.write_pgm(np.zeros(4, dtype=np.uint8), tmp_path / "f.pgm")  # 1D


def test_field_to_gray_midpoint_and_extremes():
    values = np.array([[-2.0, 0.0, 2.0]])
    gray = cc.field_to_gray(values)
    # image axes: (rows=y reversed, cols=x); one y-row here
    assert gray.shape == (3, 1)
    flat = sorted(gray.ravel().tolist())
    assert flat == [1, 128, 255]
    assert cc.field_to_gray(np.zeros((2, 2))).tolist() == [[128, 128], [128, 128]]


def test_field_to_gray_scale_invariance():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((6, 5))
    assert np.array_equal(cc.field_to_gray(values), cc.field_to_gray(10.0 * values))


def test_labels_to_gray_distinct_levels():
    labels = np.array([[0, 1], [2, -1]])
    gray = cc.labels_to_gray(labels)
    assert gray.dtype == np.uint8
    # zero band black, the three labels distinct and bright
    flat = gray.ravel().tolist()
    assert flat.count(0) == 1
    nonzero = sorted(v for v in flat if v != 0)
    assert len(set(nonzero)) == 3
    assert min(nonzero) >= 60


@pytest.mark.parametrize("count, levels", [(196, 196), (197, 196), (300, 196)])
def test_labels_to_gray_holds_196_levels(count, levels):
    # 8 bits from 60 to 255: past 196 labels some neighbours share a level,
    # and the levels never fall as the label rises
    gray = cc.labels_to_gray(np.arange(count + 1).reshape(-1, 1)).ravel()
    assert gray[0] == 0 and np.unique(gray[1:]).size == levels
    assert np.all(np.diff(gray[1:].astype(int)) >= 0)


def test_image_orientation():
    # node array indexed (x, y); the image places increasing y upward
    values = np.zeros((2, 3))
    values[1, 0] = 1.0  # x = max, y = min -> bottom-right pixel
    gray = cc.field_to_gray(values)
    assert gray.shape == (3, 2)
    assert gray[-1, -1] == 255
