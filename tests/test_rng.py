"""The generator must match an independent reimplementation of its spec."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnadapt.data import SynthConfig, synth_corpus
from dsnadapt.nn import Rng

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def ref_raw(seed: int, k: int) -> int:
    """Independent pure-int SplitMix64 oracle: k-th draw for a seed."""
    z = (seed + k * GOLDEN) & M64
    z = ((z ^ (z >> 30)) * MIX1) & M64
    z = ((z ^ (z >> 27)) * MIX2) & M64
    return z ^ (z >> 31)


def test_matches_published_test_vector():
    # first output of SplitMix64 for seed 0 from the reference implementation
    assert ref_raw(0, 1) == 0xE220A8397B1DCDAF
    assert Rng(0)._raw_block(1).tolist() == [0xE220A8397B1DCDAF]


@given(st.integers(min_value=0, max_value=M64))
@settings(max_examples=50)
def test_scalar_path_matches_oracle(seed):
    # one draw at a time: each call continues the counter
    rng = Rng(seed)
    assert [int(rng._raw_block(1)[0]) for _ in range(8)] == [ref_raw(seed, k) for k in range(1, 9)]


@given(st.integers(min_value=0, max_value=M64), st.integers(min_value=0, max_value=16))
@settings(max_examples=50)
def test_vector_path_matches_scalar_path(seed, split):
    # a block split anywhere yields the same draws as one block and the oracle
    rng = Rng(seed)
    parts = rng._raw_block(split).tolist() + rng._raw_block(16 - split).tolist()
    assert parts == Rng(seed)._raw_block(16).tolist() == [ref_raw(seed, k) for k in range(1, 17)]


def test_uniform_conversion_matches_oracle():
    rng = Rng(42)
    got = rng.uniforms(4)
    want = [(ref_raw(42, k) >> 11) * 2.0**-53 for k in range(1, 5)]
    assert got.tolist() == want
    assert ((0 <= got) & (got < 1)).all()


def test_normals_match_boxmuller_oracle():
    rng = Rng(42)
    got = rng.normals(3)
    out = []
    for i in (1, 3):  # pairs consume draws (1,2) and (3,4)
        u1 = ((ref_raw(42, i) >> 11) + 1) * 2.0**-53
        u2 = (ref_raw(42, i + 1) >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        out += [r * math.cos(2 * math.pi * u2), r * math.sin(2 * math.pi * u2)]
    assert got.tolist() == out[:3]


def test_uniform_range_mapping():
    a = Rng(5).uniforms(100, -2.0, 3.0)
    assert ((-2.0 <= a) & (a < 3.0)).all()
    base = Rng(5).uniforms(100)
    assert np.array_equal(a, -2.0 + 5.0 * base)


def test_next_below_matches_modulo_rule():
    # synthetic frame labels are integers below num_classes: raw draw % q
    cfg = SynthConfig(num_classes=5, base_dim=3, utterances_per_domain=1, frames_per_utterance=20,
                      class_separation=1.0, channel_matrix_scale=0.0, noise_std=0.0, seed=9)
    labels = synth_corpus(cfg).source_train.labels.tolist()
    # corner class means draw nothing; the 3x3 channel matrix takes 10 raw draws
    assert labels == [ref_raw(9, k) % 5 for k in range(11, 31)]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 1000])
def test_shuffle_is_fisher_yates(n):
    rng = Rng(3)
    arr = np.arange(n)
    rng.shuffle(arr)
    # reference: same draws applied top-down
    ref = list(range(n))
    draws = iter(ref_raw(3, k) for k in range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = next(draws) % (i + 1)
        ref[i], ref[j] = ref[j], ref[i]
    assert arr.tolist() == ref
    assert sorted(arr.tolist()) == list(range(n))
    # the draw counter advanced by exactly n - 1 draws
    assert int(rng._raw_block(1)[0]) == ref_raw(3, max(n - 1, 0) + 1)


def test_same_seed_same_sequence():
    a, b = Rng(123), Rng(123)
    assert np.array_equal(a.normals(33), b.normals(33))
    assert np.array_equal(a.uniforms(10), b.uniforms(10))


def test_derive_is_independent_of_consumption():
    a = Rng(77)
    a.normals(50)
    b = Rng(77)
    assert a.derive(2).seed == b.derive(2).seed
    assert a.derive(0).seed != a.derive(1).seed
    assert [a.derive(s).seed for s in range(3)] == [ref_raw(77, s + 1) for s in range(3)]


def test_normals_moments_are_sane():
    z = Rng(11).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
