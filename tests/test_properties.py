"""Property tests of the entropy identities on seeded random states.

Hypothesis draws only seeds and small dimensions; ``derandomize=True`` fixes
the examples, so the suite is deterministic and short.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarkov import info
from nonmarkov.states import (
    SystemPartition,
    apply_channel,
    partial_trace,
    random_channel,
    random_density_matrix,
    spectrum_entropy,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)
SEEDS = st.integers(0, 2**31 - 1)
DIMS = st.integers(2, 3)


def _random_state(seed, labels, dims, rank=None):
    part = SystemPartition(zip(labels, dims))
    return random_density_matrix(part, rank or part.total_dim, seed)


def _s(rho, keep):
    return info.von_neumann_entropy(partial_trace(rho, keep))


@SETTINGS
@given(seed=SEEDS, dims=st.tuples(DIMS, DIMS, DIMS), rank=st.integers(1, 4))
def test_strong_subadditivity(seed, dims, rank):
    rho = _random_state(seed, "ABC", dims, rank)
    # the raw combination, before conditional_mutual_information clamps it at 0
    cmi = _s(rho, "AC") + _s(rho, "BC") - _s(rho, "C") - info.von_neumann_entropy(rho)
    assert cmi >= -1e-10


@SETTINGS
@given(seed=SEEDS, dims=st.tuples(DIMS, DIMS, st.just(2), st.just(2)))
def test_chain_rule(seed, dims):
    rho = _random_state(seed, ("A", "S", "E1", "E2"), dims)
    cmi = info.conditional_mutual_information
    lhs = cmi(rho, {"E1", "E2"}, {"A"}, {"S"})
    t1 = cmi(partial_trace(rho, {"A", "S", "E1"}), {"E1"}, {"A"}, {"S"})
    t2 = cmi(rho, {"E2"}, {"A"}, {"S", "E1"})
    assert abs(lhs - (t1 + t2)) <= 1e-8


@SETTINGS
@given(
    seeds=st.tuples(SEEDS, SEEDS, SEEDS),
    dim=st.integers(2, 4),
    kraus=st.integers(1, 3),
    a=st.floats(0.1, 0.9),
)
def test_telescopic_dpi(seeds, dim, kraus, a):
    rho = _random_state(seeds[0], "S", (dim,))
    sigma = _random_state(seeds[1], "S", (dim,))
    ch = random_channel(dim, kraus, seeds[2])
    before = info.telescopic_relative_entropy(rho, sigma, a)
    after = info.telescopic_relative_entropy(
        apply_channel(rho, ch, "S"), apply_channel(sigma, ch, "S"), a
    )
    assert after <= before + 1e-10


@SETTINGS
@given(seed=SEEDS, dims=st.tuples(DIMS, DIMS), rank=st.integers(1, 9))
def test_entropy_from_kept_spectrum(seed, dims, rank):
    rho = _random_state(seed, "AB", dims, min(rank, math.prod(dims)))
    for state in (rho, partial_trace(rho, "A"), partial_trace(rho, "B")):
        fresh = spectrum_entropy(np.linalg.eigvalsh(state.data))
        assert info.von_neumann_entropy(state) == fresh
