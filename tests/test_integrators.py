"""One-step maps and the trajectory driver against hand-assembled updates.

``manual_step`` below rebuilds both schemes from the primitive pieces
(semigroup factors, the reference pseudo-spectral lift and taming norm that
test_nonlinearity holds to quadrature, the taming quotient) with the exact
expression grouping the engine promises, so agreement is asserted bitwise,
not within a tolerance.  Everything downstream (records, coupled pairs,
blow-up handling) is checked against that oracle or against closed-form
decay identities.
"""

import math
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamedspde import integrators, noise, rng, spectral
from tamedspde.config import parse_config
from tamedspde.errors import (ConfigurationError, TamingBoundViolation,
                              TrajectoryOverflow)
from tamedspde.estimators import path_norms
from tamedspde.gaussian_oracle import linear_scheme_law
from tamedspde.integrators import Engine, SchemeConfig, evolve
from tamedspde.nonlinearity import (allen_cahn, dissipative_cubic, linear,
                                    polynomial, zero)
from tamedspde.spectral import unit_mode

from reference import (apply_nemytskii, drift_norm, mode_statistics,
                       step_discrete_convolution)


def manual_step(cfg, x, noise_term):
    """The scheme update spelled out from primitives, grouping included."""
    decay = spectral.semigroup_factors(cfg.n_modes, cfg.dt)
    gain = spectral.phi1_factors(cfg.n_modes, cfg.dt)
    if x.ndim == 2:
        decay, gain = decay[:, None], gain[:, None]
    if cfg.nl.name == "zero":
        if cfg.noise_mode == "increment":
            return decay * (x + noise_term)
        return decay * x + noise_term
    coeffs = apply_nemytskii(x, cfg.nl, cfg.n_nodes)
    if cfg.taming:
        norm = drift_norm(x, cfg.nl, cfg.n_nodes)
        drift = gain * coeffs / (1.0 + cfg.dt * norm)
        if cfg.noise_mode == "increment":
            return decay * (x + noise_term) + drift
        return decay * x + drift + noise_term
    if cfg.noise_mode == "increment":
        return decay * (x + cfg.dt * coeffs + noise_term)
    return decay * (x + cfg.dt * coeffs) + noise_term


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_cfg(nl, J=6, dt=0.05, n_steps=10, taming=True, mode="increment",
             seed=0, x0=None, cov=None):
    return SchemeConfig(n_modes=J, n_nodes=4 * J, dt=dt, n_steps=n_steps,
                        cov=cov if cov is not None else noise.white(J),
                        nl=nl, x0=x0 if x0 is not None else unit_mode(J, 1),
                        seed=seed, taming=taming, noise_mode=mode)


# --- engine vs manual oracle ---------------------------------------------------

_REACTIONS = [dissipative_cubic(1.0), allen_cahn(2.0), linear(1.5),
              polynomial([0.5, -1.0, 0.0, -1.0])]


@settings(max_examples=40)
@given(seed=st.integers(0, 5000),
       taming=st.booleans(),
       mode=st.sampled_from(["increment", "exact"]),
       batched=st.booleans(),
       nl=st.sampled_from(_REACTIONS))
def test_step_matches_manual_assembly(seed, taming, mode, batched, nl):
    cfg = make_cfg(nl, taming=taming, mode=mode, seed=seed)
    engine = Engine(cfg)
    rng = np.random.default_rng(seed)
    shape = (cfg.n_modes, 3) if batched else (cfg.n_modes,)
    x = rng.normal(size=shape)
    g = rng.normal(size=shape)
    noise_term = engine.noise_from_gaussians(g)
    assert np.array_equal(engine.step(x, noise_term),
                          manual_step(cfg, x, noise_term))


@settings(max_examples=10)
@given(seed=st.integers(0, 5000), mode=st.sampled_from(["increment", "exact"]))
def test_zero_drift_step_matches_manual(seed, mode):
    cfg = make_cfg(zero(), mode=mode, seed=seed)
    engine = Engine(cfg)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=cfg.n_modes)
    noise_term = engine.noise_from_gaussians(rng.normal(size=cfg.n_modes))
    assert np.array_equal(engine.step(x, noise_term),
                          manual_step(cfg, x, noise_term))


def test_zero_drift_is_discrete_convolution_map():
    cfg = make_cfg(zero())
    engine = Engine(cfg)
    x = np.linspace(0.5, -0.5, cfg.n_modes)
    inc = np.full(cfg.n_modes, 0.125)
    got = engine.step(x, inc)
    want = step_discrete_convolution(x, inc, engine.decay)
    assert np.array_equal(got, want)


def test_noise_from_gaussians_scales():
    cfg_inc = make_cfg(zero(), mode="increment", dt=0.04)
    cfg_ex = make_cfg(zero(), mode="exact", dt=0.04)
    g = np.ones(6)
    assert np.array_equal(Engine(cfg_inc).noise_from_gaussians(g),
                          noise.increment_scale(cfg_inc.cov, 0.04))
    assert np.array_equal(Engine(cfg_ex).noise_from_gaussians(g),
                          noise.stationary_step_scale(cfg_ex.cov, 0.04))


# --- taming bound --------------------------------------------------------------

@settings(max_examples=30)
@given(amp=st.floats(0.1, 1e3), seed=st.integers(0, 1000))
def test_tamed_drift_contribution_below_one(amp, seed):
    cfg = make_cfg(dissipative_cubic(1.0))
    engine = Engine(cfg)
    rng = np.random.default_rng(seed)
    x = amp * rng.normal(size=cfg.n_modes)
    engine.step(x, np.zeros(cfg.n_modes))
    assert engine.last_drift_l2 < 1.0


def test_drift_headroom_matches_quotient_bound():
    # || P1 F / (1 + dt ||F||) || <= dt ||F|| / (1 + dt ||F||), since P1 <= dt
    cfg = make_cfg(dissipative_cubic(0.0), x0=unit_mode(6, 1, 5.0))
    engine = Engine(cfg)
    engine.step(cfg.x0, np.zeros(6))
    fnorm = drift_norm(cfg.x0, cfg.nl, cfg.n_nodes)
    bound = cfg.dt * fnorm / (1.0 + cfg.dt * fnorm)
    assert engine.last_drift_l2 <= bound * (1.0 + 1e-12)


# --- the step workspace ------------------------------------------------------------

@pytest.mark.parametrize("taming", [True, False])
def test_step_result_survives_the_next_step(taming):
    # the step's intermediates are reused from step to step; its results are not
    cfg = make_cfg(dissipative_cubic(1.0), taming=taming)
    engine = Engine(cfg)
    x, noise_term = np.random.default_rng(3).normal(size=(2, cfg.n_modes, 5))
    first = engine.step(x, noise_term)
    l2 = engine.last_drift_l2
    kept, kept_l2 = first.copy(), np.copy(l2)
    engine.step(first, noise_term)
    assert np.array_equal(first, kept)
    assert np.array_equal(l2, kept_l2)
    assert np.array_equal(engine.step(x, noise_term), kept)


def test_engines_on_different_grids_step_correctly_in_turn():
    # equal (J, B), different n_nodes: each step sees its own grid
    cfg_a = make_cfg(dissipative_cubic(1.0))
    cfg_b = replace(cfg_a, n_nodes=5 * cfg_a.n_modes)
    engines = [Engine(cfg_a), Engine(cfg_b)]
    r = np.random.default_rng(4)
    xs = [r.normal(size=(cfg_a.n_modes, 3))] * 2
    for _ in range(3):
        noise_term = r.normal(size=(cfg_a.n_modes, 3))
        new = [e.step(x, noise_term) for e, x in zip(engines, xs)]
        for cfg, x, y in zip((cfg_a, cfg_b), xs, new):
            assert np.array_equal(y, manual_step(cfg, x, noise_term))
        xs = new


# --- the trajectory driver ------------------------------------------------------

def _traj(*indices):
    return np.array(indices, dtype=np.uint64)


def test_evolve_step_matches_engine():
    cfg = make_cfg(dissipative_cubic(1.0), seed=3, n_steps=1)
    paths, = evolve([cfg], _traj(0))
    engine = Engine(cfg)
    g = rng.normal_matrix(3, _traj(0), 0, 6)
    want = engine.step(cfg.x0[:, None], engine.noise_from_gaussians(g))
    assert np.array_equal(paths.x, want)


def test_untamed_step_overflow_raises():
    cfg = make_cfg(polynomial([0.0, 0.0, 0.0, 1.0]), taming=False,
                   x0=unit_mode(6, 1, 1e150))
    with pytest.raises(TrajectoryOverflow):
        evolve([cfg], _traj(0))


def test_taming_bound_violation_names_step_and_trajectory(monkeypatch):
    cfg = make_cfg(dissipative_cubic(1.0), x0=unit_mode(6, 1, 5.0))

    class Inflated(Engine):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.gain = self.gain * 1e6

    monkeypatch.setattr(integrators, "Engine", Inflated)
    with pytest.raises(TamingBoundViolation) as exc_info:
        evolve([cfg], _traj(8, 9))
    assert isinstance(exc_info.value, TrajectoryOverflow)
    assert exc_info.value.step == 1
    assert exc_info.value.trajectory == 8


# --- whole node side, chunked draws and the BLAS pin ---------------------------

@pytest.mark.parametrize("J, B", [(64, 1024), (64, 256), (16, 1)])
@pytest.mark.parametrize("taming", [True, False])
def test_part_step_matches_manual_assembly(J, B, taming):
    # (64, 256) is the capped weak-order part; a (64, 1) node block is one
    # column, which numpy sums pairwise
    cfg = make_cfg(dissipative_cubic(1.0), J=J, taming=taming)
    engine = Engine(cfg)
    gen = np.random.default_rng(J)
    x = gen.normal(scale=2.0, size=(J, B))
    noise_term = engine.noise_from_gaussians(gen.normal(size=(J, B)))
    assert np.array_equal(engine.step(x, noise_term),
                          manual_step(cfg, x, noise_term))


@pytest.mark.parametrize("batch", [None, 1, 2, 3, 1024])
def test_three_row_tiles_match_manual_assembly(batch):
    # the reaction runs once per step, on all 24 node rows of J = 6
    shape = (6,) if batch is None else (6, batch)
    gen = np.random.default_rng(batch)
    for nl in _REACTIONS:
        for taming in (True, False):
            for mode in ("increment", "exact"):
                cfg = make_cfg(nl, taming=taming, mode=mode)
                engine, seen = Engine(cfg), []
                engine.f = (lambda z, out, f=engine.f:
                            seen.append(z.shape) or f(z, out=out))
                x = gen.normal(size=shape)
                noise_term = engine.noise_from_gaussians(gen.normal(size=shape))
                assert np.array_equal(engine.step(x, noise_term),
                                      manual_step(cfg, x, noise_term))
                assert seen == [(24,) + shape[1:]]


def test_inline_draws_and_blas_pin_move_no_byte(monkeypatch):
    # 16 x 1024 normals per step, so evolve draws 4 steps per call, a chunk
    # of 4 and a tail of 2; a coarse level rides along
    fine = make_cfg(dissipative_cubic(1.0), J=16, n_steps=6, seed=5)
    cfgs = [replace(fine, dt=2 * fine.dt, n_steps=3), fine]
    traj = np.arange(1024, dtype=np.uint64)
    draws, normal_matrix = [], rng.normal_matrix
    monkeypatch.setattr(rng, "normal_matrix", lambda *a: draws.append(
        a[2]) or normal_matrix(*a))
    runs = [evolve(cfgs, traj)]
    monkeypatch.setattr(integrators, "_openblas_threads", lambda: None)
    runs.append(evolve(cfgs, traj))
    # allow_blowup draws the same chunk and tail
    runs.append(evolve(cfgs, traj, allow_blowup=True))
    assert draws == [range(0, 4), range(4, 6)] * 3
    for batches in runs[1:]:
        for got, want in zip(batches, runs[0]):
            assert np.array_equal(got.x, want.x)


@pytest.mark.parametrize("mode", ["increment", "exact"])
def test_chunked_draws_with_a_tail_equal_per_step_draws(monkeypatch, mode):
    # 8 x 300 normals per step: chunks of 28 steps, so 60 steps end on a
    # tail of 4; a chunk of one normal, so one step per draw, is the reference
    fine = make_cfg(dissipative_cubic(1.0), J=8, n_steps=60, seed=3,
                    mode=mode)
    cfgs = [replace(fine, dt=3 * fine.dt, n_steps=20), fine]
    traj = np.arange(500, 800, dtype=np.uint64)
    chunks, normal_matrix = [], rng.normal_matrix
    monkeypatch.setattr(rng, "normal_matrix", lambda *a: chunks.append(
        a[2]) or normal_matrix(*a))
    got = evolve(cfgs, traj)
    assert chunks == [range(0, 28), range(28, 56), range(56, 60)]
    monkeypatch.setattr(integrators, "_CHUNK_NORMALS", 1)
    want = evolve(cfgs, traj)
    assert chunks[3:] == [range(j, j + 1) for j in range(60)]
    for a, b in zip(got, want):
        assert np.array_equal(a.x, b.x)


def test_blas_pins_nest(monkeypatch):
    counts = [3]
    monkeypatch.setattr(integrators, "_openblas_threads",
                        lambda: (lambda: counts[-1], counts.append))
    with integrators._one_blas_thread():
        with integrators._one_blas_thread():
            assert counts[-1] == 1
        assert counts[-1] == 1  # an inner exit restores the 1 it found
    assert counts[-1] == 3
    assert counts == [3, 1, 1, 1, 3]


@pytest.mark.parametrize("overflow", [False, True])
def test_blas_count_is_restored(monkeypatch, overflow):
    cfg = (make_cfg(polynomial([0.0, 0.0, 0.0, 1.0]), taming=False,
                    x0=unit_mode(6, 1, 1e150)) if overflow
           else make_cfg(dissipative_cubic(1.0), n_steps=3))
    real = integrators._openblas_threads()
    before = real[0]() if real else None
    counts, seen = [3], []
    monkeypatch.setattr(integrators, "_openblas_threads",
                        lambda: (lambda: counts[-1], counts.append))
    with pytest.raises(TrajectoryOverflow) if overflow else nullcontext():
        evolve([cfg], _traj(0),
               on_state=lambda n, batches: seen.append(counts[-1]))
    assert counts == [3, 1, 3]
    assert seen == ([1] if overflow else [1] * 4)
    monkeypatch.undo()
    with pytest.raises(TrajectoryOverflow) if overflow else nullcontext():
        evolve([cfg], _traj(0))
    assert (real[0]() if real else None) == before


@pytest.mark.parametrize("overflow", [False, True])
def test_evolve_drops_its_workspaces(overflow):
    # the step and draw buffers last one call, on return and on error, so
    # a lane holds only those of the part it steps; untamed cubic paths
    # 0-15 from amplitude 6 overflow at state 9 or 10
    cfg = (make_cfg(dissipative_cubic(0.0), J=8, dt=0.25, n_steps=60,
                    seed=1, taming=False, x0=unit_mode(8, 1, 6.0))
           if overflow else make_cfg(dissipative_cubic(1.0), n_steps=3))
    held = []

    def on_state(n, batches):
        held.append((Engine._work[1] is not None, rng._work[1] is not None))

    with pytest.raises(TrajectoryOverflow) if overflow else nullcontext():
        evolve([cfg], np.arange(16, dtype=np.uint64), on_state=on_state)
    assert held[1:] == [(True, True)] * (8 if overflow else 3)
    assert Engine._work == (None, None)
    assert rng._work == (None, None)


# --- the simulate study ------------------------------------------------------------

def test_simulate_record_shapes_and_determinism():
    cfg = make_cfg(dissipative_cubic(1.0), n_steps=12, seed=11)
    rec = path_norms(cfg, 1)
    assert rec.times.shape == (13,)
    assert rec.l2.shape == rec.sup.shape == (13, 1)
    assert np.array_equal(rec.times, 0.05 * np.arange(13))
    assert rec.l2[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert rec.blowup_steps.tolist() == [-1]
    again = path_norms(cfg, 1)
    assert np.array_equal(rec.l2, again.l2)
    assert np.array_equal(rec.sup, again.sup)


def test_simulate_zero_steps():
    cfg = make_cfg(zero(), n_steps=0)
    rec = path_norms(cfg, 2)
    assert rec.times.shape == (1,)
    paths, = evolve([cfg], _traj(0))
    assert np.array_equal(paths.x[:, 0], cfg.x0)


def test_simulate_zero_drift_is_pure_noise_recursion():
    cfg = make_cfg(zero(), J=4, n_steps=8, seed=7, x0=unit_mode(4, 2, 0.3))
    paths, = evolve([cfg], _traj(2))
    decay = spectral.semigroup_factors(4, cfg.dt)
    scale = noise.increment_scale(cfg.cov, cfg.dt)
    x = cfg.x0.copy()
    for n in range(8):
        inc = scale * rng.normal_matrix(7, _traj(2), n, 4)[:, 0]
        x = step_discrete_convolution(x, inc, decay)
    assert np.array_equal(paths.x[:, 0], x)


def test_simulate_rejects_batched_x0():
    # the configuration itself rejects it, before any study steps it
    with pytest.raises(ConfigurationError, match=r"\(6,\), got \(6, 2\)"):
        path_norms(make_cfg(zero(), x0=np.zeros((6, 2))), 2)


def test_tamed_overflow_names_step_and_trajectory():
    cfg = make_cfg(polynomial([0.0, 0.0, 0.0, 1.0]), x0=unit_mode(6, 1, 1e110),
                   n_steps=5)
    with pytest.raises(TrajectoryOverflow) as exc_info:
        evolve([cfg], _traj(4))
    assert exc_info.value.step == 1
    assert exc_info.value.trajectory == 4


def test_untamed_blowup_truncates_record():
    cfg = make_cfg(dissipative_cubic(0.0), J=16, dt=0.25, n_steps=200,
                   taming=False, x0=unit_mode(16, 1, 10.0),
                   cov=noise.white(16))
    rec = path_norms(cfg, 1)
    step = int(rec.blowup_steps[0])
    assert 1 <= step <= 200
    # rows from the blow-up step on repeat the last finite state
    assert np.all(rec.l2[step:, 0] == rec.l2[step - 1, 0])
    paths, = evolve([cfg], _traj(0), allow_blowup=True)
    assert paths.blowup.tolist() == [step]
    assert np.all(np.isfinite(paths.x))


def test_dead_paths_are_not_stepped(monkeypatch):
    # configs/blowup.yaml: all 100 paths are dead at state 7 of 200; the
    # later states repeat the frozen ones without stepping, and only the
    # first chunk is drawn (41 steps of 16 x 100 hold 2^16 normals)
    cfg = parse_config(str(_CONFIGS / "blowup.yaml")).scheme
    calls, draws = [], []
    step, normal_matrix = Engine.step, rng.normal_matrix
    monkeypatch.setattr(Engine, "step",
                        lambda e, x, g: calls.append(1) or step(e, x, g))
    monkeypatch.setattr(rng, "normal_matrix",
                        lambda *a: draws.append(a[2]) or normal_matrix(*a))
    states = []
    paths, = evolve([cfg], _traj(*range(100)),
                    on_state=lambda n, batches: states.append(batches[0].x),
                    allow_blowup=True)
    assert len(calls) == 7
    assert draws == [range(0, 41)]
    assert paths.blowup.tolist() == [7] * 100
    assert len(states) == cfg.n_steps + 1
    assert all(np.array_equal(s, states[6]) for s in states[7:])


def test_tamed_same_start_does_not_blow_up():
    cfg = make_cfg(dissipative_cubic(0.0), J=16, dt=0.25, n_steps=200,
                   taming=True, x0=unit_mode(16, 1, 10.0), cov=noise.white(16))
    rec = path_norms(cfg, 1)
    assert rec.blowup_steps.tolist() == [-1]
    assert np.all(np.isfinite(rec.l2))


# --- coupled pairs ----------------------------------------------------------------

def test_coupled_pair_difference_sees_no_noise():
    # zero drift: the difference contracts by exactly the semigroup factor
    cfg = make_cfg(zero(), J=4, n_steps=10, seed=9)
    a, b = unit_mode(4, 1, 2.0), unit_mode(4, 1, -1.0)
    pa, pb = evolve([replace(cfg, x0=a), replace(cfg, x0=b)], _traj(0))
    decay = spectral.semigroup_factors(4, cfg.dt)
    assert np.allclose((pa.x - pb.x)[:, 0], decay ** 10 * (a - b),
                       rtol=1e-9, atol=1e-15)


def test_coupled_pair_contracts_under_dissipative_drift():
    cfg = make_cfg(dissipative_cubic(1.0), J=8, dt=0.01, n_steps=100, seed=1)
    pa, pb = evolve([replace(cfg, x0=unit_mode(8, 1, 1.0)),
                     replace(cfg, x0=spectral.zero_field(8))], _traj(0))
    dist = np.sqrt(((pa.x - pb.x) ** 2).sum())
    assert dist < 1.0 * math.exp(-0.5 * cfg.horizon)


def test_coupled_pair_shares_one_stream():
    cfg = make_cfg(zero(), J=4, n_steps=6, seed=13)
    pa, _ = evolve([cfg, replace(cfg, x0=spectral.zero_field(4))], _traj(5))
    solo, = evolve([cfg], _traj(5))
    assert np.array_equal(pa.x, solo.x)


def test_coupled_pair_validation():
    cfg = make_cfg(zero())
    with pytest.raises(ConfigurationError):
        evolve([replace(cfg, x0=unit_mode(5, 1)), cfg], _traj(0))
    with pytest.raises(ConfigurationError):
        evolve([replace(cfg, x0=np.zeros((6, 2))), cfg], _traj(0))


def test_blowup_freezes_only_its_own_configuration():
    cfg = make_cfg(dissipative_cubic(0.0), J=16, dt=0.25, n_steps=30,
                   taming=False, x0=spectral.zero_field(16),
                   cov=noise.white(16))
    seen = []
    calm, hot = evolve([cfg, replace(cfg, x0=unit_mode(16, 1, 10.0))],
                       _traj(0), allow_blowup=True,
                       on_state=lambda idx, batches: seen.append(
                           [p.x.copy() for p in batches]))
    step = int(hot.blowup[0])
    assert 1 <= step <= 30 and len(seen) == 31
    # the blown configuration freezes at its last finite state
    for later in seen[step:]:
        assert np.array_equal(later[1], seen[step - 1][1])
    assert np.all(np.isfinite(seen[-1][1]))
    # its partner steps on, bitwise as in its solo run
    solo, = evolve([cfg], _traj(0), allow_blowup=True)
    assert calm.blowup.tolist() == solo.blowup.tolist() == [-1]
    assert np.array_equal(calm.x, solo.x)
    assert not np.array_equal(seen[-1][0], seen[step - 1][0])


def test_configurations_share_one_noise():
    # one noise stream, several schemes: each batch is its solo run
    base = make_cfg(dissipative_cubic(1.0), J=8, n_steps=12, seed=21)
    cfgs = [base, replace(base, nl=linear(1.0), taming=False),
            replace(base, nl=zero())]
    for cfg, paths in zip(cfgs, evolve(cfgs, _traj(3, 4, 5))):
        solo, = evolve([cfg], _traj(3, 4, 5))
        assert np.array_equal(paths.x, solo.x), cfg.nl.name


def test_exact_mode_levels_nest():
    # zero reaction in exact mode: a coarse step is the fine steps composed,
    # so every level ends where the finest does, up to rounding
    cfg = make_cfg(zero(), J=16, mode="exact", seed=5,
                   cov=noise.power_decay(16, 3.0))
    levels = [replace(cfg, dt=2.0 ** -k, n_steps=2 ** (k - 2))
              for k in range(2, 6)]
    batches = evolve(levels, np.arange(2048, dtype=np.uint64))
    finest = batches[-1].x
    for paths in batches[:-1]:
        rel = np.abs(paths.x - finest).max() / np.abs(finest).max()
        assert rel <= 1e-12, (paths.cfg.dt, rel)


def test_exact_mode_coarse_level_has_its_law():
    # a nested coarse level is exact in law, like its solo run (check 03)
    fine = make_cfg(linear(1.0), J=4, dt=0.05, n_steps=20, taming=False,
                    mode="exact", seed=3, x0=spectral.zero_field(4))
    coarse = replace(fine, dt=0.1, n_steps=10)
    paths, _ = evolve([coarse, fine], np.arange(20_000, dtype=np.uint64))
    mean, mean_se, var, var_se = mode_statistics(paths.x)
    law = linear_scheme_law(coarse)
    assert np.all(np.abs(mean - law.mean) < 4.0 * mean_se)
    assert np.all(np.abs(var - law.variance) < 4.0 * var_se)


def test_configurations_that_cannot_share_noise_are_rejected():
    cfg = make_cfg(zero(), n_steps=12)
    with pytest.raises(ConfigurationError, match="must nest"):
        evolve([replace(cfg, dt=0.12, n_steps=5), cfg], _traj(0))
    with pytest.raises(ConfigurationError, match="horizon"):   # 1.8 against 0.6
        evolve([replace(cfg, dt=0.3, n_steps=6), cfg], _traj(0))
    with pytest.raises(ConfigurationError, match="seed"):
        evolve([replace(cfg, seed=1), cfg], _traj(0))
    with pytest.raises(ConfigurationError, match="covariance"):
        evolve([replace(cfg, cov=noise.power_decay(6, 2.0)), cfg], _traj(0))


# --- configuration validation ------------------------------------------------------

def test_config_rejects_bad_fields():
    ok = dict(n_modes=4, n_nodes=16, dt=0.1, n_steps=10, cov=noise.white(4),
              nl=zero(), x0=unit_mode(4, 1))
    SchemeConfig(**ok)
    with pytest.raises(ConfigurationError):
        SchemeConfig(**{**ok, "n_modes": 0})
    with pytest.raises(ConfigurationError):
        SchemeConfig(**{**ok, "n_nodes": 3})
    with pytest.raises(ConfigurationError):
        SchemeConfig(**{**ok, "dt": 0.0})
    with pytest.raises(ConfigurationError):
        SchemeConfig(**{**ok, "dt": 0.6})          # above default dt_max
    with pytest.raises(ConfigurationError):
        SchemeConfig(**{**ok, "n_steps": -1})
    with pytest.raises(ConfigurationError):
        SchemeConfig(**{**ok, "seed": -1})
    with pytest.raises(ConfigurationError):
        SchemeConfig(**{**ok, "seed": 2 ** 64})
    SchemeConfig(**{**ok, "seed": 2 ** 64 - 1})
    with pytest.raises(ConfigurationError):
        SchemeConfig(**{**ok, "noise_mode": "euler"})
    with pytest.raises(ConfigurationError):
        SchemeConfig(**{**ok, "cov": noise.white(5)})
    with pytest.raises(ConfigurationError, match=r"\(4,\), got \(5,\)"):
        SchemeConfig(**{**ok, "x0": unit_mode(5, 1)})
    with pytest.raises(ConfigurationError, match=r"\(4,\), got \(2, 2, 2\)"):
        SchemeConfig(**{**ok, "x0": np.zeros((2, 2, 2))})
    with pytest.raises(ConfigurationError, match=r"\(4,\), got \(\)"):
        SchemeConfig(**{**ok, "x0": np.float64(1.0)})
    with pytest.raises(ConfigurationError, match="x0 must be finite"):
        SchemeConfig(**{**ok, "x0": np.array([1.0, np.nan, 0.0, 0.0])})
    assert SchemeConfig(**{**ok, "x0": [1, 0, 0, 0]}).x0.dtype == np.float64


def test_config_dt_max_boundary_and_horizon():
    cfg = SchemeConfig(n_modes=2, n_nodes=8, dt=0.5, n_steps=4,
                       cov=noise.white(2), nl=zero(), x0=unit_mode(2, 1))
    assert cfg.dt == cfg.dt_max == 0.5
    assert cfg.horizon == 2.0
    wide = SchemeConfig(n_modes=2, n_nodes=8, dt=0.75, n_steps=4,
                        cov=noise.white(2), nl=zero(), x0=unit_mode(2, 1),
                        dt_max=1.0)
    assert wide.dt == 0.75


def test_whole_steps_is_one_relative_rule():
    assert integrators.whole_steps(1.0, 0.25) == 4
    assert integrators.whole_steps(0.3, 0.1) == 3      # 3 * 0.1 != 0.3 exactly
    assert integrators.whole_steps(1.0 + 5e-10, 0.25) == 4
    assert integrators.whole_steps(1e-3, 1e-4) == 10
    for length, dt in ((1.0 + 2e-9, 0.25), (1.0, 0.3), (0.04, 0.1),
                       (0.0, 0.1), (-0.5, 0.1), (1.0, 0.0), (1.0, -0.25),
                       (math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf),
                       (1.0, math.nan), (1e300, 1e-300)):
        with pytest.raises(ConfigurationError, match="whole steps"):
            integrators.whole_steps(length, dt)


def test_allen_cahn_runs_under_taming():
    cfg = make_cfg(allen_cahn(1.0), n_steps=50, seed=21)
    rec = path_norms(cfg, 1)
    assert rec.blowup_steps.tolist() == [-1]
    assert np.all(np.isfinite(rec.l2))
