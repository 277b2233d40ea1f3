"""The Monte-Carlo kernel's block seeding against ``substream``, its definition."""

import numpy as np
import pytest

from smoothent import IsotropicMixture, SampleMatrix, mixture, plugin_entropy_mc
from smoothent.rng import _pcg64_states, substream

# seeds of one, two, three and five 32-bit words (five is past the pool's
# four), a word's top bit set, integer types other than int, and a sequence
# of seed words
SEEDS = [0, 1, 2**32 - 1, 2**32 + 7, 2**63 + 5, 2**64 + 3, 2**128 + 99,
         np.int64(2**40 + 9), np.uint64(2**64 - 1), True, False, [3, 2**40]]


def block_normals(seed, start, stop, shape, block):
    """Each center's normals of ``shape``, from block states on one reused generator."""
    gen = np.random.Generator(np.random.PCG64(0))
    out = np.empty((stop - start, *shape))
    for b0 in range(start, stop, block):
        b1 = min(b0 + block, stop)
        mixture._normals(gen, _pcg64_states(seed, b0, b1), out[b0 - start : b1 - start], carry=False)
    return out


def substream_normals(seed, start, stop, shape):
    return np.array([substream(seed, i).standard_normal(shape) for i in range(start, stop)])


@pytest.mark.parametrize("start", [0, 4093])
@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_states_are_those_of_substream(seed, start):
    # 1,000 centers in one call and in blocks of 20, as the kernel runs them
    stop = start + 1000
    expected = substream_normals(seed, start, stop, (4, 3))
    for block in (1000, 20):
        np.testing.assert_array_equal(block_normals(seed, start, stop, (4, 3), block), expected)
    states = _pcg64_states(seed, start, stop)
    assert states == [substream(seed, i).bit_generator.state for i in range(start, stop)]


@pytest.mark.parametrize("start", [2**32 - 5, 2**32, 2**40 + 3, 2**63 - 4])
@pytest.mark.parametrize("seed", [0, 2**32 + 7, 2**128 + 99], ids=repr)
def test_indices_of_two_spawn_words(seed, start):
    # an index from 2**32 on is two spawn words; a range may straddle 2**32
    stop = start + 8
    np.testing.assert_array_equal(block_normals(seed, start, stop, (5,), 3),
                                  substream_normals(seed, start, stop, (5,)))


def test_states_carry_over_two_draw_chunks():
    # n_mc = 2100 is drawn in chunks of 2048 and 52; each of a block's
    # centers resumes its own stream in the second chunk
    gen = np.random.Generator(np.random.PCG64(0))
    states = _pcg64_states(2**64 + 3, 11, 16)
    out = np.empty((5, 2100, 3))
    mixture._normals(gen, states, out[:, :2048], carry=True)
    mixture._normals(gen, states, out[:, 2048:], carry=False)
    np.testing.assert_array_equal(out, substream_normals(2**64 + 3, 11, 16, (2100, 3)))


@pytest.mark.parametrize("n", [5, 400])
@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError)])
def test_invalid_seeds_raise_as_substream_does(monkeypatch, n, seed, error):
    # serial and, at 400 centers on two workers, pooled
    monkeypatch.setattr(mixture, "_worker_count", lambda: 2)
    mix = IsotropicMixture(SampleMatrix(np.random.default_rng(1).standard_normal((3, n))), 0.3)
    with pytest.raises(error):
        substream(seed, 0)
    with pytest.raises(error):
        plugin_entropy_mc(mix, 100, seed)
