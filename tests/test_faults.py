"""The fault matrix: each engine fault, injected with no source edit, must fail the tags declared for it.

A fault is a monkeypatch that corrupts one engine's numbers.  For each fault, CATCHES names the
tags that must fail at one point at least of their sample, the points tests/test_routes.py
traces.  A route tag that passes everywhere under a fault does not see that engine, however
different its two sides look.  The memos are emptied before each fault and after it, so that no
corrupted number outlives its test.
"""
from __future__ import annotations

import functools

import pytest

from heterobell import clear_caches, distributions, hetero, verify_identity
from heterobell.arith import times

from .test_routes import sample


def _engine_fault(patch: pytest.MonkeyPatch) -> None:
    """The partial-sum engine reads sigma**2 (E[Y**2] + 1) for its scaled E[Y**2]."""

    def seeded(d):
        sigma, mu = d.scale(), distributions.raw_moment
        return [1, times(mu(d, 1), sigma), times(mu(d, 2), sigma**2) + sigma**2], []

    patch.setattr(distributions, "_sum_moments", functools.cache(seeded))


def _single_copy_fault(patch: pytest.MonkeyPatch) -> None:
    """The single-copy moment stream of the partial Bell rows yields u_2 + c**2 for u_2."""
    stream = hetero.scaled_deg_rising_moments

    def faulty(d, lam):
        moments, c = stream(d, lam)
        return (u + c**2 if m == 2 else u for m, u in enumerate(moments)), c

    patch.setattr(hetero, "scaled_deg_rising_moments", faulty)


FAULTS = {"engine": _engine_fault, "single-copy": _single_copy_fault}

# fault -> the tags that must catch it
CATCHES = {
    "engine": ("T2.2", "T2.3", "T2.4", "T2.9", "LIMITS"),
    "single-copy": ("T2.2", "T2.3", "T2.4", "T2.9", "LIMITS"),
}


@pytest.mark.parametrize("fault, tag", [(fault, tag) for fault, tags in CATCHES.items() for tag in tags])
def test_the_fault_fails_the_tag(monkeypatch, fault, tag):
    clear_caches()
    try:
        with monkeypatch.context() as patch:
            FAULTS[fault](patch)
            failed = [point for point in sample(tag) if not verify_identity(tag, **point).passed]
    finally:
        clear_caches()
    assert failed, f"the {fault} fault passes every sampled point of {tag}"
