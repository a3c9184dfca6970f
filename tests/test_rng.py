"""Differential tests: the batched stream derivation in `rng` against
numpy's own SeedSequence -> PCG64 -> Generator, one stream at a time, on
the installed numpy: sketch keys through Generator.integers, candidate
streams through the draws the approx driver makes."""

import numpy as np
import pytest

from fillorder import rng as rngmod
from fillorder import sketch
from fillorder.generators import grid2d_graph
from fillorder.graph import from_edges
from fillorder.sketch import SketchEnsemble
from sketch_reference import ReferenceEnsemble

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 12345, 2**130 + 5]
M128 = 1 << 128


def _keys(seed: int, i: int, n: int) -> np.ndarray:
    gen = rngmod.substream(seed, rngmod.SKETCH_KEYS, i)
    return gen.integers(1, 2**64, size=n, dtype=np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("first", [0, 7])
@pytest.mark.parametrize("n", [1, 2, 30, 1000])
def test_draws_match_substream_integers(seed, first, n):
    got = rngmod.sketch_key_draws(seed, first, 3, n)
    assert got.shape == (3, n) and got.dtype == np.uint64
    for j, row in enumerate(got):
        assert np.array_equal(row, _keys(seed, first + j, n))


@pytest.mark.parametrize("seed", SEEDS)
def test_states_match_substream_bit_generator(seed):
    states = rngmod.stream_states(seed, rngmod.SKETCH_KEYS, 5, 4)
    for j, state in enumerate(states):
        assert state == rngmod.substream(seed, rngmod.SKETCH_KEYS, 5 + j).bit_generator.state


def test_empty_batch():
    assert rngmod.sketch_key_draws(3, 4, 0, 10).shape == (0, 10)
    assert rngmod.sketch_key_draws(3, 4, 2, 0).shape == (2, 0)


def test_negative_seed_rejected_like_seed_sequence():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        rngmod.sketch_key_draws(-1, 0, 2, 5)


def test_copy_index_beyond_one_word_rejected():
    with pytest.raises(ValueError):
        rngmod.stream_states(0, rngmod.SKETCH_KEYS, 2**32 - 1, 2)


def _zero_at(position: int, inc: int) -> dict:
    """PCG64 state whose raw output number `position` (0-based) is 0: the
    XSL-RR output of a state with equal 64-bit halves is 0, and the LCG
    step s -> s * M + inc is undone with M's inverse mod 2^128 (M is odd)."""
    half = 0x0123456789ABCDEF
    state = (half << 64) | half
    inverse = pow(rngmod.PCG_MULT, -1, M128)
    for _ in range(position + 1):
        state = (state - inc) * inverse % M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _integers_from(state: dict, n: int) -> np.ndarray:
    bitgen = np.random.PCG64(0)
    bitgen.state = state
    return np.random.Generator(bitgen).integers(1, 2**64, size=n, dtype=np.uint64)


@pytest.mark.parametrize("n", [1, 2, 30])
def test_raw_zero_is_redrawn_as_integers_does(n, monkeypatch):
    states = [rngmod.stream_states(3, rngmod.SKETCH_KEYS, 0, 1)[0],
              _zero_at(0, inc=(12345 << 1) | 1),
              _zero_at(1, inc=(2**100 + 7) | 1)]
    for state, position in zip(states[1:], (0, 1)):
        bitgen = np.random.PCG64(0)
        bitgen.state = state
        raw = bitgen.random_raw(position + 2)
        assert raw[position] == 0
    monkeypatch.setattr(rngmod, "stream_states",
                        lambda seed, namespace, first, count: states[first:first + count])
    got = rngmod.sketch_key_draws(3, 0, 3, n)
    for row, state in zip(got, states):
        want = _integers_from(state, n)
        assert want.all()
        assert np.array_equal(row, want)


def test_ensemble_blocks_keep_per_copy_substreams(monkeypatch):
    # an edgeless graph's fill minimum is the vertex's own key, so the
    # rank tables read back every copy's draws in vertex order
    n, seed = 7, 11
    monkeypatch.setattr(sketch, "_GATHER_BLOCK", 2 * n + 1)  # two copies per block
    ens = SketchEnsemble(from_edges(n, []), seed, 5)
    assert list(ens.add_copies(4)) == [5, 6, 7, 8]
    rows = list(range(n))
    floats, ids = ens.min_key_floats(rows), ens.minimizers(rows)
    for i in range(9):
        assert np.array_equal(floats[:, i], _keys(seed, i, n) / 2.0**64)
        assert np.array_equal(ids[:, i], np.arange(n))


def test_ensemble_blocks_match_reference_sketches(monkeypatch):
    g = grid2d_graph(16)
    monkeypatch.setattr(sketch, "_GATHER_BLOCK", 3 * g.n)
    ens = SketchEnsemble(g, 5, 4)
    ref = ReferenceEnsemble(g, 5, 4)
    for v in (5, 10):
        ens.pivot(v)
        ref.pivot(v)
    ens.add_copies(5)
    ref.add_copies(5)
    rows = [u for u in range(g.n) if u not in (5, 10)]
    assert np.array_equal(ens.minimizers(rows), ref.minimizers(rows))
    assert np.array_equal(ens.min_key_floats(rows), ref.min_key_floats(rows))


CANDIDATE_SEEDS = [0, 1, 2**32 + 7, 2**64 - 1]


@pytest.mark.parametrize("seed", CANDIDATE_SEEDS)
def test_candidate_states_match_substream_across_a_block(seed):
    first = rngmod._STREAM_BLOCK - 5
    states = rngmod.stream_states(seed, rngmod.CANDIDATES, first, 10)
    for j, state in enumerate(states):
        assert state == rngmod.substream(seed, rngmod.CANDIDATES, first + j).bit_generator.state


def _candidate_draws(gen) -> list:
    # the calls `ordering.trimmed_candidates` makes on a step's stream
    return [gen.random(3).tolist(), gen.standard_exponential(), gen.standard_exponential(),
            gen.integers([0, 1, 2, 5], [5, 6, 7, 2**40]).tolist(), gen.random()]


@pytest.mark.parametrize("seed", CANDIDATE_SEEDS)
def test_substreams_draw_as_fresh_generators(seed):
    count = rngmod._STREAM_BLOCK + 4
    checked = {0, 1, 2, rngmod._STREAM_BLOCK - 1, rngmod._STREAM_BLOCK, count - 1}
    seen = 0
    for t, gen in enumerate(rngmod.substreams(seed, rngmod.CANDIDATES, count)):
        if t in checked:
            assert _candidate_draws(gen) == \
                _candidate_draws(rngmod.substream(seed, rngmod.CANDIDATES, t))
        else:
            gen.integers(0, 3, size=5)  # leftover state must not carry over
        seen += 1
    assert seen == count


def test_substreams_small_blocks(monkeypatch):
    monkeypatch.setattr(rngmod, "_STREAM_BLOCK", 3)
    got = [_candidate_draws(gen) for gen in rngmod.substreams(9, rngmod.CANDIDATES, 8)]
    assert got == [_candidate_draws(rngmod.substream(9, rngmod.CANDIDATES, t)) for t in range(8)]
    assert list(rngmod.substreams(9, rngmod.CANDIDATES, 0)) == []
