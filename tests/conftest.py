"""Test oracles shared by several test modules."""

import numpy as np
import pytest

from latgad import cli, gadgets


@pytest.fixture(autouse=True)
def empty_process_caches():
    """Each test starts with every CLI cache, the builders' cube and the
    class index empty, so a test that watches a text being decoded, or a
    cube or class index being listed, sees it done whatever ran before."""
    for slot in cli._LastText.slots:
        slot.cache_clear()
    gadgets._cube.cache_clear()
    gadgets._class_index.cache_clear()


def character_table(subset, k: int) -> np.ndarray:
    """Output table of the character x -> prod_{i in subset} x_i over
    {-1, +1}^k in the cube order (-1 before +1, last coordinate fastest), a
    +-1 vector of length 2^k.  `subset` holds 1-based coordinate indices; the
    empty subset gives the all-ones vector."""
    s = set(subset)
    if not s <= set(range(1, k + 1)):
        raise ValueError(f"subset entries outside [1, {k}]: {sorted(s)}")
    out = np.ones(2**k, dtype=np.int64)
    for i in s:
        block = 2 ** (k - i)
        out *= np.tile(np.repeat(np.array((-1, 1), dtype=np.int64), block), 2 ** (i - 1))
    return out


@pytest.fixture
def fourier_vector():
    return character_table
