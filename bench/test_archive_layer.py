"""Archive-layer microbenchmark: one ``subset_select`` or ``hypervolume``
call per round.

Run from the root of a checkout (outside ``testpaths``, so the default
``pytest`` run does not collect it):

    PYTHONPATH=src python -m pytest bench/test_archive_layer.py --benchmark-only

The front is 430 normalized points, the size of the front that
``bittp solve --time-limit 7 --max-solutions 100`` reaches on the n=280
benchmark instance of seed 1: profits and times drawn from
``default_rng(1)`` and sorted, so both increase strictly.  Subset
selection keeps 100 of them, as ``--max-solutions 100`` does.
"""

import numpy as np
import pytest

from bittp import hypervolume, subset_select

SIZE = 430
KEEP = 100


@pytest.fixture(scope="module")
def front():
    rng = np.random.default_rng(1)
    g = np.unique(rng.random(2 * SIZE))[:SIZE]
    h = np.unique(rng.random(2 * SIZE))[:SIZE]
    assert g.shape == h.shape == (SIZE,)
    return list(zip(g.tolist(), h.tolist()))


def test_subset_select(benchmark, front):
    keep = benchmark(subset_select, front, KEEP)
    assert len(keep) == KEEP


def test_hypervolume(benchmark, front):
    hv = benchmark(hypervolume, front)
    assert 0.0 < hv < 1.0
