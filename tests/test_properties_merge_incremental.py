"""Property test: the incremental merge is bit-identical to a from-scratch
fold under random interleavings of submissions, discards, rewinds, leaf
crashes and polls — the single-leaf tree on arbitrary float fills, six
seeds at four engines.  The body is ``tests/merge_oracle.py``'s one
interleaving property; ``test_properties_merge_tree.py`` runs it at the
other depths.
"""

import pytest

from tests.merge_oracle import check_interleaving


@pytest.mark.parametrize("seed", range(6))
def test_incremental_merge_matches_flat_merge(seed):
    check_interleaving(seed, fan_in=None, n_engines=4)
