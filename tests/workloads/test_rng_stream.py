"""The hot loops draw through ``Random._randbelow``: pin that it is the
same stream as ``randrange(n)`` and ``choice(seq)``.

``SyntheticApp.iteration``/``_pick`` and ``MutatorContext``'s random
field offsets call ``_randbelow`` directly to skip the argument
checks of the public methods.  That is only bit-identical while the
standard library's ``randrange(n)`` and ``choice(seq)`` delegate to
``_randbelow`` (true on Python 3.9-3.12).  A stdlib change to either
fails here, by name, instead of as an unexplained golden digest.
"""

import random

import pytest

BOUNDS = (1, 2, 3, 7, 64, 1000, 2**31 - 1)


@pytest.mark.parametrize("seed", [0, 1, 1905])
def test_randbelow_matches_randrange(seed):
    public = random.Random(seed)
    direct = random.Random(seed)
    for _ in range(200):
        for n in BOUNDS:
            assert direct._randbelow(n) == public.randrange(n)
    assert direct.getstate() == public.getstate()


@pytest.mark.parametrize("seed", [0, 1, 1905])
def test_indexing_by_randbelow_matches_choice(seed):
    """Interleaved with random(), as the workload loop draws."""
    sequences = [(16, 24, 32, 48, 64, 96), (0, 0, 1, 2, 4), ("only",),
                 tuple(range(1000))]
    public = random.Random(seed)
    direct = random.Random(seed)
    for _ in range(500):
        for seq in sequences:
            assert seq[direct._randbelow(len(seq))] == public.choice(seq)
            assert direct.random() == public.random()
    assert direct.getstate() == public.getstate()
