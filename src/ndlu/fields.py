"""The thresholded random high-contrast coefficient field of the
laplace-contrast family. assembly takes every coefficient as a number, a
2x2 array or a function of points; this module makes the one function."""

from __future__ import annotations

import numpy as np

from .core import check_int
from .errors import ConfigError
from .meshing import DOMAIN

__all__ = ["make_contrast_field"]


# noise lattice spacing; the lattice covers the structured meshes' DOMAIN
SMOOTHING_RADIUS = 0.1


def make_contrast_field(rho, seed):
    """Two-valued field, a function of (m, 2) points returning m values: rho
    where a smoothed noise field exceeds 1/2, else 1/rho.

    Noise is white on a coarse lattice of spacing SMOOTHING_RADIUS over
    meshing.DOMAIN, box-blurred once with a 3x3 stencil, then interpolated
    bilinearly; threshold at 0.5. rho = 1 yields the constant-1 field, as
    both values are then 1. Deterministic per seed. rho must be a number of
    at least 1 and seed an int of at least 0, or ConfigError is raised.
    """
    if not rho >= 1:  # a NaN rho fails this too
        raise ConfigError(f"contrast rho must be >= 1, got {rho!r}")
    check_int("seed", seed, 0)

    x0, x1, y0, y1 = DOMAIN
    nx = max(4, int(np.ceil((x1 - x0) / SMOOTHING_RADIUS)) + 1)
    ny = max(4, int(np.ceil((y1 - y0) / SMOOTHING_RADIUS)) + 1)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), nx, ny]))
    noise = rng.random((ny, nx))

    # one pass of a 3x3 box blur with edge replication
    padded = np.pad(noise, 1, mode="edge")
    smooth = np.zeros_like(noise)
    for dy in range(3):
        for dx in range(3):
            smooth += padded[dy : dy + ny, dx : dx + nx]
    smooth /= 9.0

    lo, hi = 1.0 / rho, float(rho)

    def field(points):
        gx = np.clip((points[:, 0] - x0) / (x1 - x0) * (nx - 1), 0, nx - 1)
        gy = np.clip((points[:, 1] - y0) / (y1 - y0) * (ny - 1), 0, ny - 1)
        ix = np.minimum(gx.astype(np.int64), nx - 2)
        iy = np.minimum(gy.astype(np.int64), ny - 2)
        fx, fy = gx - ix, gy - iy
        v = (
            smooth[iy, ix] * (1 - fx) * (1 - fy)
            + smooth[iy, ix + 1] * fx * (1 - fy)
            + smooth[iy + 1, ix] * (1 - fx) * fy
            + smooth[iy + 1, ix + 1] * fx * fy
        )
        return np.where(v > 0.5, hi, lo)

    return field
