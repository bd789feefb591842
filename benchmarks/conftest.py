"""Shared helpers for the benchmark suite.

Every benchmark regenerates one paper artifact (table/figure/claim) and
prints the measured series next to the paper's reported values, so
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction
report. Scale is laptop-friendly by default; set ``REPRO_FULL=1`` for
larger sweeps closer to the paper's.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest


def full_scale() -> bool:
    """True when REPRO_FULL=1 requests paper-scale sweeps."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false")


def sweep_jobs() -> int:
    """Worker processes for engine-backed sweeps (REPRO_JOBS, default 1).

    Sweep results are bitwise-identical for any value (stateless
    per-task seeds), so raising this only changes benchmark wall-clock,
    never an assertion.
    """
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


@pytest.fixture
def scale():
    """dict of scale knobs shared by the experiment benchmarks."""
    if full_scale():
        return {
            "fig5_k": (5, 15, 25, 35, 45, 55),
            "fig5_settings_per_k": 6,
            "fig5_platforms": 5,
            "fig6_k": (15, 20, 25),
            "fig6_settings_per_k": 5,
            "fig6_platforms": 6,
            "fig7_k": (10, 20, 30, 40),
            "headline_settings": 40,
            "headline_platforms": 4,
            "exact_k": (4, 6, 8, 10),
            "reduction_n": 9,
        }
    return {
        "fig5_k": (5, 15, 25),
        "fig5_settings_per_k": 2,
        "fig5_platforms": 2,
        "fig6_k": (10, 15),
        "fig6_settings_per_k": 1,
        "fig6_platforms": 2,
        "fig7_k": (8, 12, 16, 20),
        "headline_settings": 10,
        "headline_platforms": 2,
        "exact_k": (4, 5, 6),
        "reduction_n": 7,
    }


def banner(title: str, paper_claim: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print(f"paper: {paper_claim}")
    print("=" * 72)


@contextmanager
def counting_factorizations():
    """Count the LU factorizations (basis loads and refactorizations)
    made inside the block; yields a one-element list."""
    from repro.lp.basis_lu import LUBasis

    count = [0]
    factorize = LUBasis._factorize

    def counted(self):
        count[0] += 1
        factorize(self)

    LUBasis._factorize = counted
    try:
        yield count
    finally:
        LUBasis._factorize = factorize


@contextmanager
def counting_lu_solves():
    """Count the FTRAN and BTRAN solves against an LU basis made inside
    the block; yields a one-element list."""
    from repro.lp.basis_lu import LUBasis

    count = [0]
    ftran, btran = LUBasis.ftran, LUBasis.btran

    def counted_ftran(self, v):
        count[0] += 1
        return ftran(self, v)

    def counted_btran(self, v):
        count[0] += 1
        return btran(self, v)

    LUBasis.ftran, LUBasis.btran = counted_ftran, counted_btran
    try:
        yield count
    finally:
        LUBasis.ftran, LUBasis.btran = ftran, btran
