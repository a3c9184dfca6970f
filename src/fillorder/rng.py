"""Deterministic RNG stream derivation.

All randomized code takes a 64-bit master seed and derives independent
substreams through SeedSequence spawn keys.  A stream is addressed by an
integer path, so adding copies (e.g. doubling the sketch count) never
perturbs existing streams.

Sketch copy i draws its n keys as

    substream(seed, SKETCH_KEYS, i).integers(1, 2**64, size=n, dtype=np.uint64)

Building a SeedSequence, a PCG64 and a Generator per copy costs tens of
microseconds, more than the draws themselves on small graphs, so
`sketch_key_draws` derives a batch of copies in one pass and returns the
same keys bit for bit:

  seeding   SeedSequence hashes the entropy words (the seed's 32-bit
            words, zero-padded to its pool size of 4, then the spawn key)
            into a pool of four 32-bit words, and `generate_state(4,
            np.uint64)` hashes the pool into PCG64's 128-bit seed and
            increment.  Copies differ only in the last entropy word, the
            copy index, so every earlier word is hashed once as Python
            ints and the last one as a uint32 array over the batch.
  drawing   PCG64 seeds itself with two LCG steps from state 0; they run
            on Python ints, and one PCG64 object, given each copy's state
            through its `state` setter, emits the copy's raw 64-bit
            outputs with `random_raw`.
  zeros     `integers(1, 2**64)` is Lemire's bounded draw over a range of
            2^64 - 1 values: it rejects a raw 0 and returns every other
            raw value unchanged, so the keys are the raw outputs with
            zeros dropped and the stream continued.

The seeding step works for any namespace (`stream_states`).  The approx
driver draws step t's candidates from substream(seed, CANDIDATES, t);
`substreams` gives one Generator the states of a block of steps in turn,
so a step sets a state instead of building a SeedSequence and a
Generator.  Setting a state also clears PCG64's buffered 32-bit half, so
every draw equals a fresh Generator's.

The batch must equal the per-copy streams exactly: seeded orders and
`key_material()` depend on every key and candidate draw, and
`DynamicSketch` and the test references still build one Generator per
stream.  None of the steps above is a numpy interface, so they can only
be checked against numpy itself: tests/test_rng.py compares every row
with the per-copy Generator on the installed numpy, including a forced
raw 0, and the candidate streams' draws with fresh Generators.
"""

from __future__ import annotations

import numpy as np

# stream namespaces
SKETCH_KEYS = 1
CANDIDATES = 2
ESTIMATOR = 3
GENERATOR = 4
DEMO = 5

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# streams whose states `substreams` derives at once
_STREAM_BLOCK = 4096
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by `path` under `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def normalize_seed(seed) -> int:
    """Coerce a user-supplied seed to a nonnegative 64-bit int."""
    s = int(seed)
    return s & 0xFFFFFFFFFFFFFFFF


def _words(x: int) -> list[int]:
    """A nonnegative int as little-endian 32-bit words, as SeedSequence
    splits it."""
    if x < 0:
        raise ValueError("expected non-negative integer")
    out = [x & _M32]
    while x := x >> 32:
        out.append(x & _M32)
    return out


# The hash steps below take Python ints or uint32 arrays alike: products
# are masked to 32 bits, which is a no-op on arrays, where they wrap.

def _hashmix(value, const: int):
    value = (value ^ const) * (const * _MULT_A & _M32) & _M32
    return value ^ (value >> 16), const * _MULT_A & _M32


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32)) & _M32
    return r ^ (r >> 16)


def _pool(entropy: list) -> list:
    """SeedSequence.mix_entropy of `entropy` (at least pool-size words)."""
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], h)
    return pool


def stream_states(seed: int, namespace: int, first: int, count: int) -> list[dict]:
    """PCG64 states of substream(seed, namespace, i) for
    i = first, ..., first + count - 1, as its `state` property gives them."""
    if first < 0 or count < 0:
        raise ValueError("first and count must be nonnegative")
    if first + count > 1 << 32:
        raise ValueError("stream index must fit one 32-bit word")
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    index = np.arange(first, first + count, dtype=np.uint32)
    pool = _pool(run + _words(namespace) + [index])
    # generate_state(4, np.uint64): eight words from the cycled pool
    const = _INIT_B
    words = []
    for i in range(8):
        w = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _M32
        w = w * const & _M32
        words.append((w ^ (w >> 16)).tolist())
    states = []
    for a, b, c, d, e, f, g, h in zip(*words):
        init = (b << 96) | (a << 64) | (d << 32) | c
        inc = ((f << 96) | (e << 64) | (h << 32) | g) << 1 & _M128 | 1
        # pcg64_srandom_r: step from state 0, add the seed, step again
        states.append({"bit_generator": "PCG64",
                       "state": {"state": ((inc + init) * PCG_MULT + inc) & _M128, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def sketch_key_draws(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """(count, n) uint64 keys; row j equals
    substream(seed, SKETCH_KEYS, first + j).integers(1, 2**64, size=n,
    dtype=np.uint64) bit for bit (see the module docstring)."""
    states = stream_states(seed, SKETCH_KEYS, first, count)
    out = np.empty((count, n), dtype=np.uint64)
    bitgen = np.random.PCG64(0)
    for j, state in enumerate(states):
        bitgen.state = state
        out[j] = bitgen.random_raw(n)
    # a raw 0 is rejected and the stream continues; rows with one are redrawn
    for j in np.flatnonzero(~out.all(axis=1)).tolist():
        bitgen.state = states[j]
        raw = bitgen.random_raw(n)
        while not raw.all():
            raw = raw[raw != 0]
            raw = np.concatenate((raw, bitgen.random_raw(n - len(raw))))
        out[j] = raw
    return out


def substreams(seed: int, namespace: int, count: int):
    """Yield substream(seed, namespace, i) for i = 0, ..., count - 1,
    equal in every draw, as one Generator whose PCG64 is given each
    stream's state in turn; a yielded Generator is valid until the next
    one is taken.  States are derived _STREAM_BLOCK at a time."""
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    for first in range(0, count, _STREAM_BLOCK):
        for state in stream_states(seed, namespace, first, min(_STREAM_BLOCK, count - first)):
            bitgen.state = state
            yield gen
