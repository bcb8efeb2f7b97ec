"""Counter-based generator: addressing, determinism, and Gaussian quality."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tamedspde import rng

from reference import uniforms, words

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def test_repeated_calls_bitwise_identical():
    a = rng.normal_matrix(7, np.arange(32, dtype=np.uint64), 5, 12)
    b = rng.normal_matrix(7, np.arange(32, dtype=np.uint64), 5, 12)
    assert a.shape == (12, 32)
    assert np.array_equal(a, b)


def test_entry_depends_only_on_its_address():
    # draw trajectories 0..63 in one batch, then trajectory 17 alone
    batch = rng.normal_matrix(3, np.arange(64, dtype=np.uint64), 9, 8)
    alone = rng.normal_matrix(3, np.array([17], dtype=np.uint64), 9, 8)
    assert np.array_equal(batch[:, 17], alone[:, 0])
    # asking for fewer rows returns a prefix of the same numbers
    short = rng.normal_matrix(3, np.arange(64, dtype=np.uint64), 9, 3)
    assert np.array_equal(batch[:3], short)


def test_any_batch_split_reassembles():
    traj = np.arange(100, dtype=np.uint64)
    whole = rng.normal_matrix(11, traj, 2, 6)
    pieces = [rng.normal_matrix(11, traj[s:s + 7], 2, 6) for s in range(0, 100, 7)]
    assert np.array_equal(whole, np.concatenate(pieces, axis=1))


@given(seed=U64, traj=U64, step=st.integers(min_value=0, max_value=2**32))
def test_single_draw_reproducible(seed, traj, step):
    t = np.array([traj], dtype=np.uint64)
    x = rng.normal_matrix(seed, t, step, 2)
    y = rng.normal_matrix(seed, t, step, 2)
    assert np.array_equal(x, y)
    assert np.all(np.isfinite(x))


def test_distinct_indices_decorrelate():
    # changing any one coordinate of the address must change the output
    base = rng.normal_matrix(0, np.array([0], dtype=np.uint64), 0, 4)
    assert not np.array_equal(base, rng.normal_matrix(1, np.array([0], dtype=np.uint64), 0, 4))
    assert not np.array_equal(base, rng.normal_matrix(0, np.array([1], dtype=np.uint64), 0, 4))
    assert not np.array_equal(base, rng.normal_matrix(0, np.array([0], dtype=np.uint64), 1, 4))


def test_uniforms_in_half_open_unit_interval():
    u = uniforms(5, np.arange(1000, dtype=np.uint64), 0, 20)
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)


def test_gaussian_moments():
    n = 200_000
    x = rng.normal_matrix(123, np.arange(n, dtype=np.uint64), 0, 1)[0]
    # mean has SE 1/sqrt(n), variance estimator SE ~ sqrt(2/n)
    assert abs(x.mean()) < 4.0 / np.sqrt(n)
    assert abs(x.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / n)
    # symmetric tails: P(|X| > 1.96) = 5% to within 4 binomial SEs
    frac = (np.abs(x) > 1.959964).mean()
    assert abs(frac - 0.05) < 4.0 * np.sqrt(0.05 * 0.95 / n)


def test_cross_trajectory_independence():
    n = 100_000
    a = rng.normal_matrix(9, np.arange(n, dtype=np.uint64), 0, 2)
    corr_rows = np.corrcoef(a[0], a[1])[0, 1]
    assert abs(corr_rows) < 4.0 / np.sqrt(n)
    b = rng.normal_matrix(9, np.arange(n, 2 * n, dtype=np.uint64), 0, 1)[0]
    corr_traj = np.corrcoef(a[0], b)[0, 1]
    assert abs(corr_traj) < 4.0 / np.sqrt(n)
    # consecutive steps of the same trajectories
    c = rng.normal_matrix(9, np.arange(n, dtype=np.uint64), 1, 1)[0]
    corr_step = np.corrcoef(a[0], c)[0, 1]
    assert abs(corr_step) < 4.0 / np.sqrt(n)


def test_words_shape_and_dtype():
    w = words(0, np.arange(5, dtype=np.uint64), 0, 3)
    assert w.shape == (3, 5)
    assert w.dtype == np.uint64


# SHA-256 of normal_matrix(...).tobytes() at fixed addresses, as computed by
# the allocating Box-Muller below (numpy 2.4.6, x86-64, glibc libm).  Any
# change to the stream fails here; so could a numpy or libm whose log or cos
# rounds differently, which would also move every seeded result.
TOP = 2**64 - 1
PINNED = [
    (7, np.arange(1024, dtype=np.uint64), 3, 64,
     "58eb4b6a866d2db1a909f61183aacec048c5fc781d1f0f972dba10f48fd4282c"),
    (7, np.arange(1024, dtype=np.uint64), 3, 16,
     "f29470ff49d3427f70a337570dbeab6cc21b21bbe5846aadafdce65b68921045"),
    (0, np.zeros(1, dtype=np.uint64), 0, 1,
     "71a568853f7c50bf182f4c8048b1b00424a22a7ed94a14a1530aea7cc5e1b5c9"),
    (TOP, np.array([TOP - k for k in range(7)], dtype=np.uint64), TOP, 5,
     "2d39813463b69e5388b678065c7f9acceaadf4e357250e654eed18a9100c0e82"),
]


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def _box_muller(seed, traj, step, n_rows):
    # the allocating form of normal_matrix: every op in its order
    u = uniforms(seed, traj, step, 2 * n_rows)
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = (2.0 * np.pi) * u[1::2]
    return radius * np.cos(angle)


@pytest.mark.parametrize("seed,traj,step,n_rows,digest", PINNED,
                         ids=["64x1024", "16x1024", "1x1", "5x7-top"])
def test_stream_is_pinned(seed, traj, step, n_rows, digest):
    x = rng.normal_matrix(seed, traj, step, n_rows)
    assert x.shape == (n_rows, traj.size)
    assert _digest(x) == digest
    assert np.array_equal(x, _box_muller(seed, traj, step, n_rows))


def test_words_and_uniforms_are_pinned():
    top = np.array([TOP - k for k in range(7)], dtype=np.uint64)
    assert _digest(words(TOP, top, TOP, 10)) == (
        "b4986a56658c8eabcfd064078fd09f76bbcfc79f2f49a9825f1e4d4482ea3497")
    assert _digest(uniforms(7, np.arange(1024, dtype=np.uint64), 3, 32)) == (
        "2e486b51d386074d74131f2e66bcd0ef0f1c4ad266e23a401b57ac8d3f077ff8")


@given(seed=U64, step=U64, n_rows=st.integers(min_value=0, max_value=9),
       first=U64, n_traj=st.integers(min_value=0, max_value=40))
def test_normals_are_box_muller_over_uniforms(seed, step, n_rows, first, n_traj):
    traj = np.array([(first + k) % 2**64 for k in range(n_traj)], dtype=np.uint64)
    x = rng.normal_matrix(seed, traj, step, n_rows)
    assert x.shape == (n_rows, n_traj)
    assert np.array_equal(x, _box_muller(seed, traj, step, n_rows))


def test_result_survives_the_next_call():
    t = np.arange(1024, dtype=np.uint64)
    # same shape, fewer rows, then an odd number of trajectories
    calls = [(5, t, 0, 64), (5, t, 1, 64), (5, t, 2, 16), (6, t[:333], 3, 16),
             (6, t[:333], 4, 16)]
    kept = [(rng.normal_matrix(*c), c) for c in calls]
    for x, c in kept:
        assert np.array_equal(x, _box_muller(*c))
    # a later call hands out a new array, not the one returned before
    assert not np.shares_memory(kept[0][0], kept[1][0])


@pytest.mark.parametrize("n_rows", [16, 64])
def test_call_allocates_little_beyond_its_result(n_rows):
    t = np.arange(1024, dtype=np.uint64)
    rng.normal_matrix(1, t, 0, n_rows)  # warm-up: builds the workspace
    tracemalloc.start()
    try:
        x = rng.normal_matrix(1, t, 1, n_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * x.nbytes, peak / x.nbytes


@pytest.mark.parametrize("n_steps", [1, 3, 4, 54])
def test_range_draw_stacks_the_step_draws(n_steps):
    # 76 trajectories, neither contiguous nor sorted, one near 2^64
    t = np.array([5, 3, 900, TOP] + list(range(40, 112, 1)), dtype=np.uint64)
    t[10] = 12345
    assert t.size == 76
    steps = range(17, 17 + n_steps)
    x = rng.normal_matrix(4, t, steps, 6)
    assert x.shape == (n_steps, 6, 76)
    for k, step in enumerate(steps):
        assert np.array_equal(x[k], rng.normal_matrix(4, t, step, 6)), step


def test_range_draw_wraps_past_the_last_step():
    t = np.arange(5, dtype=np.uint64)
    x = rng.normal_matrix(2, t, range(TOP - 1, TOP + 2), 3)
    for k, step in enumerate([TOP - 1, TOP, 0]):
        assert np.array_equal(x[k], rng.normal_matrix(2, t, step, 3))
    with pytest.raises(ValueError, match="consecutive"):
        rng.normal_matrix(2, t, range(0, 4, 2), 3)


@pytest.mark.parametrize("tail", [4, 2])
def test_range_call_allocates_little_beyond_its_result(tail):
    # after a 4-step warm-up a range of 4, or a tail of 2, reuses its
    # buffers: new ones would take the peak to 3 times the result
    t = np.arange(1024, dtype=np.uint64)
    rng.normal_matrix(1, t, range(0, 4), 16)
    tracemalloc.start()
    try:
        x = rng.normal_matrix(1, t, range(4, 4 + tail), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * x.nbytes, peak / x.nbytes
