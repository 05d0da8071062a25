"""Binary PGM (P5, 8-bit) image output for grid data.

Images are oriented with x increasing to the right and y increasing
upward, i.e. row 0 of the image is the top of the chart.
"""

from __future__ import annotations

import numpy as np


def write_pgm(gray: np.ndarray, path) -> None:
    """Write a 2D uint8 array (rows, cols) as a binary PGM file."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {gray.shape}")
    if gray.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {gray.dtype}")
    rows, cols = gray.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(gray.tobytes())


def _to_image_axes(data2d: np.ndarray) -> np.ndarray:
    # node array is (nx, ny); the image wants (rows=y top-down, cols=x)
    return data2d.T[::-1]


def field_to_gray(values2d: np.ndarray) -> np.ndarray:
    """Map a signed field to gray levels, zero at mid-gray 128."""
    values2d = np.asarray(values2d, dtype=float)
    vmax = np.abs(values2d).max()
    scaled = values2d / vmax if vmax > 0 else np.zeros_like(values2d)
    gray = np.clip(np.rint(128.0 + 127.0 * scaled), 0, 255).astype(np.uint8)
    return _to_image_axes(gray)


def labels_to_gray(labels2d: np.ndarray) -> np.ndarray:
    """Map integer labels to distinct gray levels, ascending with the label;
    label 0 stays black.  A presence table spans the labels' range, so they
    should be dense, as nodal_domains numbers them."""
    labels2d = np.asarray(labels2d).astype(np.intp, casting="safe", copy=False)
    zero = -labels2d.min(initial=0)  # table slot of label 0
    shifted = labels2d + zero
    present = np.bincount(shifted.ravel(), minlength=zero + 1) > 0
    present[zero] = False
    lookup = np.zeros(present.size, dtype=np.uint8)
    lookup[present] = np.linspace(60, 255, np.count_nonzero(present)).astype(np.uint8)
    return _to_image_axes(lookup[shifted])
