"""Generators for the eight dataset analogs (paper Table 1).

Design rules:

- dimensionality and value type follow the paper (large d values are
  scaled down by a constant factor so the pure-Python reproduction stays
  fast; ``DATASET_SPECS`` keeps the paper's ``paper_d`` next to each
  analog),
- hardness is controlled by the cluster structure: tight, well-separated
  clusters give high Relative Contrast and low LID (MSONG, SIFT, MNIST,
  BIGANN), while structureless data gives RC near 1 and LID near d
  (RAND, GAUSS),
- queries are drawn from the same process as the database (the paper
  uses the query sets accompanying each dataset, which are held-out
  samples of the same distribution).

Coordinate scales are chosen so the radius ladder (Sec. 2.3) has a
single-digit-to-low-teens rung count, matching Table 4's regime.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.utils.rng import rng_for

__all__ = [
    "make_msong",
    "make_sift",
    "make_gist",
    "make_rand",
    "make_glove",
    "make_gauss",
    "make_mnist",
    "make_bigann",
]


def _clustered(
    rng: np.random.Generator,
    n: int,
    d: int,
    n_clusters: int,
    center_scale: float,
    noise_scale: float,
    latent_dim: int | None = None,
) -> np.ndarray:
    """Gaussian-mixture points, optionally on a low-dimensional manifold.

    ``latent_dim`` embeds cluster noise in a ``latent_dim``-dimensional
    subspace, lowering the local intrinsic dimensionality the way real
    feature corpora (audio/image descriptors) do.
    """
    centers = rng.normal(scale=center_scale, size=(n_clusters, d))
    assignment = rng.integers(0, n_clusters, size=n)
    if latent_dim is None:
        noise = rng.normal(scale=noise_scale, size=(n, d))
    else:
        basis = rng.normal(size=(latent_dim, d)) / np.sqrt(latent_dim)
        noise = rng.normal(scale=noise_scale, size=(n, latent_dim)) @ basis
    return centers[assignment] + noise


def _split(points: np.ndarray, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    data = np.ascontiguousarray(points[:-n_queries], dtype=np.float32)
    queries = np.ascontiguousarray(points[-n_queries:], dtype=np.float32)
    return data, queries


def _quantize_bytes(points: np.ndarray) -> np.ndarray:
    """Clip and round to the byte range used by SIFT/MNIST-style data."""
    return np.clip(np.round(points), 0, 255).astype(np.float32)


def make_msong(n: int = 20_000, n_queries: int = 50, d: int = 140, seed: int = 0) -> Dataset:
    """Audio-feature analog (MSONG): easy, strongly clustered floats."""
    rng = rng_for(seed, f"msong-{n}-{d}")
    points = _clustered(
        rng, n + n_queries, d, n_clusters=80, center_scale=6.0, noise_scale=1.2, latent_dim=24
    )
    data, queries = _split(points, n_queries)
    return Dataset(name="msong", data=data, queries=queries, value_type="float", kind="audio")


def make_sift(n: int = 20_000, n_queries: int = 50, d: int = 128, seed: int = 0) -> Dataset:
    """SIFT descriptor analog: byte-valued, clustered, moderately easy."""
    rng = rng_for(seed, f"sift-{n}-{d}")
    points = _clustered(
        rng, n + n_queries, d, n_clusters=120, center_scale=28.0, noise_scale=9.0, latent_dim=32
    )
    points = _quantize_bytes(points + 120.0)
    data, queries = _split(points, n_queries)
    return Dataset(name="sift", data=data, queries=queries, value_type="byte", kind="image")


def make_gist(n: int = 20_000, n_queries: int = 50, d: int = 320, seed: int = 0) -> Dataset:
    """GIST analog (paper d=960, scaled 3x): hard, high-LID floats."""
    rng = rng_for(seed, f"gist-{n}-{d}")
    points = _clustered(
        rng, n + n_queries, d, n_clusters=40, center_scale=1.1, noise_scale=1.0, latent_dim=160
    )
    data, queries = _split(points, n_queries)
    return Dataset(name="gist", data=data, queries=queries, value_type="float", kind="image")


def make_rand(n: int = 20_000, n_queries: int = 50, d: int = 100, seed: int = 0) -> Dataset:
    """Uniform random floats in [0, scale]^d — nearly contrast-free."""
    rng = rng_for(seed, f"rand-{n}-{d}")
    points = rng.random((n + n_queries, d)) * 12.0
    data, queries = _split(points, n_queries)
    return Dataset(name="rand", data=data, queries=queries, value_type="float", kind="synthetic")


def make_glove(n: int = 20_000, n_queries: int = 50, d: int = 100, seed: int = 0) -> Dataset:
    """Word-embedding analog (GLOVE): overlapping clusters, varied norms."""
    rng = rng_for(seed, f"glove-{n}-{d}")
    points = _clustered(
        rng, n + n_queries, d, n_clusters=300, center_scale=1.4, noise_scale=1.0, latent_dim=70
    )
    norms = rng.lognormal(mean=0.0, sigma=0.25, size=(n + n_queries, 1))
    points = points * norms
    data, queries = _split(points, n_queries)
    return Dataset(name="glove", data=data, queries=queries, value_type="float", kind="text")


def make_gauss(n: int = 20_000, n_queries: int = 50, d: int = 160, seed: int = 0) -> Dataset:
    """GAUSS analog (paper d=512, scaled): iid normal — the hardest set."""
    rng = rng_for(seed, f"gauss-{n}-{d}")
    points = rng.normal(scale=3.0, size=(n + n_queries, d))
    data, queries = _split(points, n_queries)
    return Dataset(name="gauss", data=data, queries=queries, value_type="float", kind="synthetic")


def make_mnist(n: int = 20_000, n_queries: int = 50, d: int = 196, seed: int = 0) -> Dataset:
    """MNIST analog (28x28 scaled to 14x14): sparse byte images, easy."""
    rng = rng_for(seed, f"mnist-{n}-{d}")
    points = _clustered(
        rng, n + n_queries, d, n_clusters=60, center_scale=55.0, noise_scale=22.0, latent_dim=20
    )
    # Digit images are mostly background: zero out low-intensity pixels.
    points = points + 40.0
    points[points < 70.0] = 0.0
    points = _quantize_bytes(points)
    data, queries = _split(points, n_queries)
    return Dataset(name="mnist", data=data, queries=queries, value_type="byte", kind="image")


def make_bigann(n: int = 100_000, n_queries: int = 50, d: int = 128, seed: int = 0) -> Dataset:
    """BIGANN analog: SIFT-like bytes at the largest scale we sweep."""
    rng = rng_for(seed, f"bigann-{n}-{d}")
    points = _clustered(
        rng, n + n_queries, d, n_clusters=256, center_scale=28.0, noise_scale=9.0, latent_dim=32
    )
    points = _quantize_bytes(points + 120.0)
    data, queries = _split(points, n_queries)
    return Dataset(name="bigann", data=data, queries=queries, value_type="byte", kind="image")
