"""Seeded stacks of states on the partitions the identity suite draws."""

import itertools

import pytest

from nonmarkov.states import SystemPartition, basis_state, random_density_matrix, tensor


def _splits(n_parts: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """The dims ``oracle._qubit_split`` draws: lo..hi qubits, one or more per part."""
    counts = itertools.product(range(1, hi + 1), repeat=n_parts)
    return sorted({tuple(2**c for c in cs) for cs in counts if lo <= sum(cs) <= hi})


IDENTITY_PARTITIONS = [
    *(tuple(zip("ASE", dims)) for dims in _splits(3, 3, 5)),  # (a), (f) and the Petz sample
    *(tuple(zip(("A", "S", "E1", "E2"), dims)) for dims in _splits(4, 4, 5)),  # (b)-(d)
    *(tuple(zip(("A", "S", "E1"), (*dims, 2))) for dims in _splits(2, 2, 3)),  # (e)
    *((("S", d),) for d in (2, 3, 4)),  # (g), (h)
    *((("S", d), ("A", 2)) for d in (2, 3, 4)),  # (g)'s pair state
]


@pytest.fixture(
    params=[(factors, dead) for factors in IDENTITY_PARTITIONS for dead in (False, True)],
    ids=lambda p: "-".join(f"{lbl}{d}" for lbl, d in p[0]) + ("-dead" if p[1] else ""),
)
def identity_stacks(request):
    """Two seeded stacks of three full-rank states on one partition of the identity suite.

    ``-dead`` tensors both with |1><1| of a qutrit F, so that every slice has
    the same dead rows.
    """
    factors, dead = request.param
    part = SystemPartition(factors)
    rho, sigma = (random_density_matrix(part, part.total_dim, [seed + 3 * k for k in range(3)]) for seed in (1, 2))
    if dead:
        flag = basis_state(SystemPartition([("F", 3)]), [1])
        rho, sigma = tensor(rho, flag), tensor(sigma, flag)
    return rho, sigma
