"""The generators' token draw against its per-call oracle.

``Vocabulary.sample_tokens`` draws from a cumulative Zipf distribution built
once per vocabulary; ``tests/reference.py::reference_sample_tokens`` rebuilds
the weights on every call and hands them to ``Generator.choice``.  Both must
return the same tokens *and* leave the generator in the same state, call after
call, so every dataset drawn through either is bit-identical
(``test_golden_generation.py`` pins that over the whole registry).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import CLEAN_CLEAN_PROFILES, DIRTY_PROFILES, get_vocabulary
from repro.datasets.vocabulary import VOCABULARIES

from reference import reference_sample_tokens

pytestmark = pytest.mark.equivalence

#: the sizes the registry's profiles and the factories' defaults use, plus tiny ones
SIZES = sorted(
    {1, 2, 50}
    | {profile.vocabulary_size for profile in CLEAN_CLEAN_PROFILES.values()}
    | {profile.vocabulary_size for profile in DIRTY_PROFILES.values()}
    | {len(factory().tokens) for factory in VOCABULARIES.values()}
)

draws = st.lists(st.tuples(st.integers(0, 12), st.booleans()), min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(
    domain=st.sampled_from(sorted(VOCABULARIES)),
    size=st.sampled_from(SIZES),
    seed=st.integers(0, 2**64 - 1),
    calls=draws,
)
def test_sample_tokens_matches_per_call_choice(domain, size, seed, calls):
    vocabulary = get_vocabulary(domain, size)
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    for count, with_common in calls:
        sampled = vocabulary.sample_tokens(rng, count, with_common=with_common)
        expected = reference_sample_tokens(vocabulary, oracle, count, with_common=with_common)
        assert sampled == expected
        assert rng.bit_generator.state == oracle.bit_generator.state


def test_cdf_is_read_only_and_ends_at_one():
    vocabulary = get_vocabulary("people", 4000)
    assert vocabulary.cdf.shape == (4000,)
    assert vocabulary.cdf[-1] == 1.0
    assert not vocabulary.cdf.flags.writeable
    assert np.all(np.diff(vocabulary.cdf) > 0)
    with pytest.raises(ValueError, match="at least one token"):
        get_vocabulary("people", 0)
