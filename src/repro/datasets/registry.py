"""Dataset registry: Table 1 rows mapped to generators and E2LSH settings.

Each spec records the paper's reference figures (n in thousands, d, RC,
LID) alongside the analog generator and the per-dataset E2LSH exponent
``rho`` used by the experiments (the paper chooses L per dataset,
Table 4; the effective rho follows from L = n^rho).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.datasets.base import Dataset
from repro.datasets import synthetic

__all__ = ["DatasetSpec", "DATASET_SPECS", "DATASET_NAMES", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset analog and its paper-reference figures."""

    name: str
    generator: Callable[..., Dataset]
    #: Paper Table 1 reference values (README, "Tests and benchmarks").
    paper_n_thousands: float
    paper_d: int
    paper_rc: float
    paper_lid: float
    paper_type: str
    #: Paper Table 4 reference values.
    paper_l: int
    paper_total_radii: int
    paper_avg_radii: float
    paper_n_io_inf: float
    #: Index-size exponent used by our experiments (L = n^rho).
    rho: float = 0.30

    def load(self, n: int | None = None, n_queries: int = 50, seed: int = 0) -> Dataset:
        """Instantiate the analog (``n=None`` uses the generator default)."""
        kwargs: dict[str, int] = {"n_queries": n_queries, "seed": seed}
        if n is not None:
            kwargs["n"] = n
        return self.generator(**kwargs)


DATASET_SPECS: dict[str, DatasetSpec] = {
    "msong": DatasetSpec(
        name="msong", generator=synthetic.make_msong,
        paper_n_thousands=983, paper_d=420, paper_rc=4.04, paper_lid=23.8,
        paper_type="Audio", paper_l=16, paper_total_radii=11,
        paper_avg_radii=5.76, paper_n_io_inf=133.6, rho=0.28,
    ),
    "sift": DatasetSpec(
        name="sift", generator=synthetic.make_sift,
        paper_n_thousands=1_000, paper_d=128, paper_rc=3.20, paper_lid=21.7,
        paper_type="Image", paper_l=25, paper_total_radii=11,
        paper_avg_radii=9.08, paper_n_io_inf=347.5, rho=0.32,
    ),
    "gist": DatasetSpec(
        name="gist", generator=synthetic.make_gist,
        paper_n_thousands=1_000, paper_d=960, paper_rc=2.14, paper_lid=47.3,
        paper_type="Image", paper_l=32, paper_total_radii=4,
        paper_avg_radii=1.70, paper_n_io_inf=48.7, rho=0.35,
    ),
    "rand": DatasetSpec(
        name="rand", generator=synthetic.make_rand,
        paper_n_thousands=1_000, paper_d=100, paper_rc=1.42, paper_lid=49.6,
        paper_type="Synthetic", paper_l=48, paper_total_radii=4,
        paper_avg_radii=3.00, paper_n_io_inf=196.5, rho=0.39,
    ),
    "glove": DatasetSpec(
        name="glove", generator=synthetic.make_glove,
        paper_n_thousands=1_183, paper_d=100, paper_rc=2.20, paper_lid=22.1,
        paper_type="Text", paper_l=51, paper_total_radii=5,
        paper_avg_radii=3.82, paper_n_io_inf=317.2, rho=0.40,
    ),
    "gauss": DatasetSpec(
        name="gauss", generator=synthetic.make_gauss,
        paper_n_thousands=2_000, paper_d=512, paper_rc=1.14, paper_lid=147.1,
        paper_type="Synthetic", paper_l=19, paper_total_radii=8,
        paper_avg_radii=6.00, paper_n_io_inf=190.8, rho=0.30,
    ),
    "mnist": DatasetSpec(
        name="mnist", generator=synthetic.make_mnist,
        paper_n_thousands=8_000, paper_d=784, paper_rc=3.00, paper_lid=20.4,
        paper_type="Image", paper_l=18, paper_total_radii=13,
        paper_avg_radii=11.60, paper_n_io_inf=393.7, rho=0.29,
    ),
    "bigann": DatasetSpec(
        name="bigann", generator=synthetic.make_bigann,
        paper_n_thousands=1_000_000, paper_d=128, paper_rc=3.55, paper_lid=25.4,
        paper_type="Image", paper_l=48, paper_total_radii=11,
        paper_avg_radii=9.03, paper_n_io_inf=791.0, rho=0.34,
    ),
}

DATASET_NAMES: tuple[str, ...] = tuple(DATASET_SPECS)


def load_dataset(
    name: str, n: int | None = None, n_queries: int = 50, seed: int = 0
) -> Dataset:
    """Load one analog by name."""
    if name not in DATASET_SPECS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASET_SPECS)}")
    return DATASET_SPECS[name].load(n=n, n_queries=n_queries, seed=seed)
