"""Property-based test (hypothesis) for bulk query instantiation.

``instantiate_many`` decodes a whole window's parameter and jitter draws
from one raw ``PCG64`` block, relying on how numpy turns raw words into
doubles and bounded integers (see ``repro.workloads.query``). This test
checks it against the one-numpy-call-per-draw oracle for arbitrary seeds,
family sequences and 32-bit buffer states, so a numpy upgrade that changes
those internals fails here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.query import instantiate_many

from tests.conftest import (
    EDGE_FAMILIES,
    generator_families,
    reference_instantiate,
    rejecting_seeds,
)

_POOL = generator_families() + EDGE_FAMILIES
# Lemire rejects about one 32-bit draw in 4 400, so arbitrary seeds rarely
# reach the redraw path; seeds that reject in their first word do.
_SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(rejecting_seeds(4)))


@settings(max_examples=150, deadline=None)
@given(
    seed=_SEEDS,
    picks=st.lists(st.integers(0, len(_POOL) - 1), max_size=300),
    prior_draws=st.integers(0, 5),
)
def test_bulk_matches_scalar_reference(seed, picks, prior_draws):
    families = [_POOL[i] for i in picks]
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (fast, ref):
        for _ in range(prior_draws):
            rng.integers(0, 999_999)
    assert instantiate_many(families, fast) == [
        reference_instantiate(family, ref) for family in families
    ]
    assert fast.bit_generator.state == ref.bit_generator.state
