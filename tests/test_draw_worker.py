"""The Monte Carlo's draw thread: the same draws as the serial path, and its lifetime.

From phase_space._THREAD_ATOMS atoms, run_monte_carlo draws u1, v and
u2 on one worker thread while the calling thread draws z and decides
pulse 1.  CI also runs this file under ``python -X dev``.
"""

import hashlib
import os
import signal
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import mwselect as mw
from mwselect import cli
from mwselect import config as cf
from mwselect import phase_space

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "rb87_10us.yaml"
FLOOR = phase_space._THREAD_ATOMS
CLOUDS = {
    "thermal": [],
    "matched": ["ensemble.z_rms=20 um", "ensemble.v_rms=2 mm/s"],
}
FIELDS = ("z0", "v0", "survived_first", "survived_both", "z_final", "v_final")


def _run_args(cloud, n, seed=1, extra=()):
    """(spec, pulse 1, pulse 2, field, window_sigmas) of simulate on a benchmark cloud."""
    run = cf.load_config(
        CONFIG, [*CLOUDS[cloud], f"ensemble.n={n}", f"ensemble.seed={seed}", *extra]
    )
    fcfg = cf.to_field_config(run)
    return (cf.to_ensemble_spec(run), *cf.to_pulses(run, fcfg), fcfg,
            run.quadrature.window_sigmas)


def _serial(monkeypatch, args):
    """The run with every stream drawn on the calling thread, by _draws."""
    with monkeypatch.context() as patch:
        patch.setattr(phase_space, "_THREAD_ATOMS", args[0].n + 1)
        return mw.run_monte_carlo(*args)


def _same(result, want) -> bool:
    return all(getattr(result, f).tobytes() == getattr(want, f).tobytes() for f in FIELDS)


def _digest(result) -> bytes:
    digest = hashlib.sha256()
    for name in FIELDS:
        digest.update(getattr(result, name).tobytes())
    return digest.digest()


def _spy_threads(monkeypatch):
    """Record, per stream key, the thread that drew it."""
    drawn = {}
    stream = phase_space._stream

    def spy(spec, key):
        drawn[key] = threading.get_ident()
        return stream(spec, key)

    monkeypatch.setattr(phase_space, "_stream", spy)
    return drawn


@pytest.mark.parametrize("n", [FLOOR - 1, FLOOR, 50000])
@pytest.mark.parametrize("cloud", sorted(CLOUDS))
def test_worker_draws_what_the_serial_path_draws(monkeypatch, cloud, n):
    args = _run_args(cloud, n)
    spec = args[0]
    want = _serial(monkeypatch, args)
    drawn = _spy_threads(monkeypatch)
    result = mw.run_monte_carlo(*args)
    assert _same(result, want)
    assert want.n_survived_both > 0
    # from the floor on, u1, v and u2 come from the worker, z from this thread
    main = threading.get_ident()
    assert drawn[0] == main
    assert all((drawn[key] != main) == (n >= FLOOR) for key in (1, 2, 4))
    # the streams are keyed and scaled as they always were: mean + rms * x
    def stream(key):
        return np.random.Generator(np.random.Philox(key=[spec.seed, key]))

    z = spec.z_mean + spec.z_rms * stream(0).standard_normal(n)
    v = spec.v_mean + spec.v_rms * stream(1).standard_normal(n)
    assert result.z0.tobytes() == z.tobytes() and result.v0.tobytes() == v.tobytes()


def test_a_raise_in_pulse_one_collects_every_draw(monkeypatch, tmp_path, capsys):
    """A packet past the phase limit raises at pulse 1; no draw outlives the call."""
    args = _run_args("thermal", FLOOR, extra=["ensemble.dz0=300 um"])
    finished = []
    stream = phase_space._stream

    def slow_u2(spec, key):
        if key == 4:
            time.sleep(0.05)  # still drawing when pulse 1 raises
        out = stream(spec, key)
        finished.append(key)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(phase_space, "_stream", slow_u2)
        with pytest.raises(mw.QuadratureError):
            mw.run_monte_carlo(*args)
        assert sorted(finished) == [0, 1, 2, 4]
    rc = cli.main([
        "simulate", str(CONFIG), "--set", f"ensemble.n={FLOOR}",
        "--set", "ensemble.dz0=300 um", "--csv", str(tmp_path / "atoms.csv"),
        "-o", str(tmp_path / "sim.json"),
    ])
    err = capsys.readouterr().err
    assert rc == 3 and "Traceback" not in err
    # the worker is still good for the next run
    args = _run_args("thermal", FLOOR, seed=2)
    assert _same(mw.run_monte_carlo(*args), _serial(monkeypatch, args))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_worker():
    """The parent's worker thread does not exist in a child forked after it ran.

    A child that submitted to the parent's executor would wait forever;
    the alarm ends it, and the parent kills it at its own deadline.
    """
    args = _run_args("thermal", FLOOR, seed=3)
    want = _digest(mw.run_monte_carlo(*args))  # the parent's worker now exists
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns about fork in a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            signal.alarm(60)
            os.write(write, _digest(mw.run_monte_carlo(*args)))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    deadline = time.monotonic() + 90
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's threaded run did not finish")
        time.sleep(0.01)
    with os.fdopen(read, "rb") as pipe:
        got = pipe.read()
    assert os.waitstatus_to_exitcode(status[1]) == 0
    assert got == want


def test_concurrent_runs_share_the_worker(monkeypatch):
    """Four threads, more than the cores, each running above the floor."""
    runs = [_run_args(cloud, FLOOR + 1000 * i, seed=10 + i)
            for i, cloud in enumerate(["thermal", "matched"] * 2)]
    want = [_digest(_serial(monkeypatch, args)) for args in runs]
    got = [[] for _ in runs]
    errors = []

    def work(i):
        try:
            for _ in range(3):
                got[i].append(_digest(mw.run_monte_carlo(*runs[i])))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == [[w] * 3 for w in want]
