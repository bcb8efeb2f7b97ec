"""Counter-based Gaussian sampling for reproducible parallel Monte Carlo.

Every draw is a pure function of (seed, trajectory, step, slot).  That buys
two properties the estimators rely on:

* a batch of trajectories can be split across any number of workers and the
  numbers never change, because nothing is sequential;
* time-step levels can be coupled exactly, since a coarse increment is
  defined as the sum of the fine increments it spans and both sides can
  regenerate the same fine draws on demand.

The word function is a chain of splitmix64 finalizer rounds, one per index
field.  Normals come from Box-Muller on two 53-bit uniforms, which keeps the
consumption per slot fixed (two words per normal, no rejection loop).
normal_matrix() draws one step or a range of K steps per call; the helper
thread of integrators.evolve asks for ranges, so its numpy calls are K times
longer and it trades the GIL with the stepping thread K times less often.
A call hashes the (seed, trajectory) prefix once and runs Box-Muller one
half at a time, in place, in a word and a scratch buffer kept per thread for
the last (rows, trajectories) shape and grown to the most steps asked for,
so a stream of same-shape calls allocates little beyond the arrays it
returns, and calls from two threads at once share no buffer.
"""

from __future__ import annotations

import threading

import numpy as np

_SEED_SALT = np.uint64(0x9E3779B97F4A7C15)
_TRAJ_SALT = np.uint64(0xBF58476D1CE4E5B9)
_STEP_SALT = np.uint64(0x94D049BB133111EB)
_SLOT_SALT = np.uint64(0xD6E8FEB86659FD93)

_TWO_POW_MINUS_53 = 2.0 ** -53

# normal_matrix()'s buffers for the last (n_rows, B) of each thread, as
# _work.key and _work.buffers: the slot salts of the radius and angle
# halves, then a word buffer and a scratch buffer of (K, n_rows, B) for the
# most steps K asked for since; a call writes the prefix it uses before
# reading it and returns none of them
_work = threading.local()


def _mix(z, tmp):
    """splitmix64 output finalizer, in place on the uint64 array z.

    tmp is scratch of z's shape; z is returned.
    """
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def _keys(seed: int, trajectories, steps: range) -> np.ndarray:
    """The (K, B) hashes of (seed, trajectory, step) that the slots are
    salted onto, one row per step; the prefix is hashed once."""
    traj = np.asarray(trajectories, dtype=np.uint64)
    if traj.ndim != 1:
        raise ValueError("trajectories must be one dimensional")
    h = np.full(traj.shape, np.uint64(seed % (1 << 64)) ^ _SEED_SALT)
    tmp = np.empty_like(h)
    with np.errstate(over="ignore"):
        _mix(h, tmp)
        h ^= traj * _TRAJ_SALT
        _mix(h, tmp)
        # the step numbers modulo 2^64, as uint64 arithmetic wraps
        salted = np.arange(len(steps), dtype=np.uint64)
        salted += np.uint64(steps.start % (1 << 64))
        salted *= _STEP_SALT
        keys = np.bitwise_xor(h, salted[:, None])
        return _mix(keys, np.empty_like(keys))


def _to_unit(w, out):
    """((w >> 11) + 1) * 2^-53 into the float64 array out; w is overwritten.

    Every step is exact, since w >> 11 has at most 53 bits.
    """
    # top 53 bits, shifted into (0, 1] so log() below is always finite
    w >>= np.uint64(11)
    out[...] = w
    out += 1.0
    out *= _TWO_POW_MINUS_53
    return out


def normal_matrix(seed: int, trajectories, step, n_rows: int) -> np.ndarray:
    """Standard normals, shape (n_rows, len(trajectories)), as a new array.

    Entry (j, i) is a pure function of (seed, trajectories[i], step, j):
    Box-Muller on the uniforms of slots 2j (radius) and 2j + 1 (angle),
    where slot k's word is _mix(key ^ k * _SLOT_SALT) and key hashes
    (seed, trajectory, step).  step may also be a range of K consecutive
    steps: the result is then a (K, n_rows, B) array whose [k] is bitwise
    the int call at step.start + k.
    """
    steps = step if isinstance(step, range) else range(step, step + 1)
    if steps.step != 1:
        raise ValueError("a range of steps must be consecutive")
    h = _keys(seed, trajectories, steps)[:, None, :]
    key, shape = (n_rows, h.shape[2]), (len(steps), n_rows, h.shape[2])
    if getattr(_work, "key", None) != key or len(_work.buffers[1]) < shape[0]:
        slots = np.arange(2 * n_rows, dtype=np.uint64) * _SLOT_SALT
        _work.buffers = None  # free the old pair before the new one
        _work.buffers = (slots.reshape(n_rows, 2).T[:, :, None].copy(),
                         np.empty(shape, np.uint64), np.empty(shape, np.uint64))
        _work.key = key
    slots, w, tmp = _work.buffers
    w, tmp = w[:shape[0]], tmp[:shape[0]]
    out = np.empty(shape)
    # sqrt(-2.0 * log(u[2j])) * cos((2.0 * pi) * u[2j + 1]), op by op: the
    # words of the radius slots 2j go straight into out ...
    _mix(np.bitwise_xor(h, slots[0], out=w), tmp)
    radius = _to_unit(w, out)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    # ... then those of the angle slots 2j + 1 into the scratch
    _mix(np.bitwise_xor(h, slots[1], out=w), tmp)
    angle = _to_unit(w, tmp.view(np.float64))
    angle *= 2.0 * np.pi
    np.cos(angle, out=angle)
    out *= angle
    return out if isinstance(step, range) else out[0]
