"""Harness runners: statistics, stream layout, fits, worker invariance."""

import dataclasses
import errno
import math
import mmap
import os
import signal
import time

import numpy as np
import pytest

from nestmc.allocation import FixedInner, FixedOuter, TauPower
from nestmc import estimators, harness
from nestmc.cli import main
from nestmc.estimators import collapsed_replications, nmc_estimate, nmc_replications
from nestmc.harness import (_fill_replications, compare_policies, fit_loglog_slope,
                            run_bias, run_collapse, run_convergence, run_fixed_inner)
from nestmc.models import CATALOG, bias_quadratic_expected_value
from nestmc.problem import NestedProblem
from nestmc.rng import make_root

# The slow runners below use every core; their values do not depend on it.
WORKERS = os.cpu_count() or 1


# ------------------------------------------------------------ fit_loglog_slope

def test_slope_fit_exact_on_reciprocal():
    fit = fit_loglog_slope([(x, 4.0 / x) for x in (1, 10, 100, 1000)])
    assert abs(fit.slope + 1.0) < 1e-12
    assert abs(fit.intercept - math.log10(4.0)) < 1e-12
    assert fit.residual_rms < 1e-12
    assert fit.points_used == 4


def test_slope_fit_exact_on_constant():
    fit = fit_loglog_slope([(x, 7.0) for x in (2, 3, 5, 8)])
    assert abs(fit.slope) < 1e-12


def test_slope_fit_exact_on_inverse_sqrt():
    fit = fit_loglog_slope([(x, x**-0.5) for x in (4, 16, 64, 256)])
    assert abs(fit.slope + 0.5) < 1e-12


def test_slope_fit_faults():
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 1.0), (2.0, -1.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(0.0, 1.0), (2.0, 1.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(float("nan"), 1.0), (2.0, 1.0)])


# ------------------------------------------------------------- run_convergence

def test_convergence_report_layout():
    p = CATALOG["gauss-log"]()
    rep = run_convergence(p, TauPower(1, 1), [256, 16, 4096], 30, make_root(7))
    assert [r.T for r in rep.rows] == [16, 256, 4096]  # sorted ascending
    assert [(r.N, r.M) for r in rep.rows] == [(4, 4), (16, 16), (64, 64)]
    assert all(r.reps == 30 for r in rep.rows)
    assert all(r.mse >= 0 and np.isfinite(r.mse) for r in rep.rows)
    assert rep.model == "gauss-log" and rep.root_seed == 7
    assert rep.fit is not None and rep.fit_note == ""


def test_convergence_requires_truth_and_enough_reps():
    p = CATALOG["gauss-log"]()
    with pytest.raises(ValueError):
        run_convergence(dataclasses.replace(p, truth=None), TauPower(1, 1),
                        [16], 10, make_root(0))
    with pytest.raises(ValueError):
        run_convergence(p, TauPower(1, 1), [16], 1, make_root(0))
    with pytest.raises(ValueError):
        run_convergence(p, TauPower(1, 1), [], 10, make_root(0))


def test_convergence_zero_mse_degenerate_note():
    rep = run_convergence(CATALOG["constant"](), TauPower(1, 1), [16, 256], 5,
                          make_root(0))
    assert rep.fit is None
    assert rep.fit_note == "degenerate: zero MSE"
    assert all(r.mse == 0.0 for r in rep.rows)


def test_convergence_rep_schedule_and_drop_smallest():
    p = CATALOG["gauss-log"]()
    rep = run_convergence(p, TauPower(1, 1), [16, 256, 4096], 40, make_root(1),
                          rep_schedule={4096: 10}, drop_smallest=1)
    assert [r.reps for r in rep.rows] == [40, 40, 10]
    assert rep.fit.points_used == 2
    with pytest.raises(ValueError):
        run_convergence(p, TauPower(1, 1), [16], 40, make_root(1),
                        rep_schedule={16: 1})
    for run in (lambda **kw: run_convergence(p, TauPower(1, 1), [16, 64], 40, make_root(1), **kw),
                lambda **kw: run_fixed_inner(p, 4, [4, 16], 40, make_root(1), **kw),
                lambda **kw: run_collapse(CATALOG["linear-gauss"](), [16, 64], 40, make_root(1),
                                          **kw)):
        with pytest.raises(ValueError, match="drop_smallest"):
            run(drop_smallest=-1)
    # A schedule key that names no row's budget is refused, not ignored.
    with pytest.raises(ValueError, match="T=17"):
        run_convergence(p, TauPower(1, 1), [16, 64], 40, make_root(1),
                        rep_schedule={17: 3})
    with pytest.raises(ValueError, match="T=17"):
        run_collapse(CATALOG["linear-gauss"](), [16, 64], 40, make_root(1),
                     rep_schedule={16: 3, 17: 3})
    with pytest.raises(ValueError, match="T=20"):
        run_fixed_inner(p, 4, [4, 16], 40, make_root(1), rep_schedule={20: 3})


def test_a_row_is_flagged_from_a_tenth_degenerate():
    row = harness.ConvergenceRow(T=16, N=4, M=4, reps=2, mean=0.0, mse=1.0, mse_se=0.1,
                                 degenerate_frac=0.1)
    assert row.flagged
    assert not dataclasses.replace(row, degenerate_frac=math.nextafter(0.1, 0)).flagged


def test_convergence_row_streams_are_positional():
    # Row r of a sweep replays exactly nmc_estimate on s.split(row).split(rep).
    p = CATALOG["gauss-log"]()
    s = make_root(3)
    rep = run_convergence(p, TauPower(1, 1), [16, 64], 2, s)
    expected = np.mean([nmc_estimate(p, 8, 8, s.split(1).split(r)).value
                        for r in range(2)])
    assert rep.rows[1].mean == expected


# ------------------------------------------------------------ _fill_replications

def _append(log, line):
    """Append `line` to the file `log` in one write, atomic across processes."""
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def _logging_span(log, fail_in=None, pause=0.003, fail_at=None):
    """A span that appends "pid lo start" and "pid lo end" lines to the file `log`.

    The lines of every process land whole and in one order.  It returns
    the replication indices as values and the pid of the process that ran
    it as degenerate fractions.
    With `fail_in` it fails on its second call in the caller ("parent") or
    its first in a child ("child"); with `fail_at` it fails at that lo
    wherever it runs.
    """
    me, calls = os.getpid(), []

    def span(row, lo, hi):
        pid = os.getpid()
        calls.append(lo)  # this process's copy of the list
        _append(log, f"{pid} {lo} start\n")
        time.sleep(pause)
        where = "parent" if pid == me else "child"
        if (fail_in == where and len(calls) == (2 if pid == me else 1)) or lo == fail_at:
            _append(log, f"{pid} {lo} fail\n")
            raise RuntimeError(f"span at {lo} failed in the {where}")
        _append(log, f"{pid} {lo} end\n")
        return np.arange(lo, hi, dtype=float), np.full(hi - lo, float(pid))
    return span


def _log(path):
    """(pid, lo, event) of each line of a span log, in order."""
    with open(path) as fh:
        return [(int(pid), int(lo), event) for pid, lo, event in map(str.split, fh)]


def _cpus(monkeypatch, n):
    """Show this process n CPUs through both queries the worker clamp may read."""
    monkeypatch.setattr(os, "cpu_count", lambda: n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture(autouse=True)
def _no_fd_leaked_and_no_child_left():
    fds = len(os.listdir("/proc/self/fd"))
    yield
    assert len(os.listdir("/proc/self/fd")) == fds and _no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_calling_process_is_worker_zero(monkeypatch, tmp_path, workers):
    # Two workers on any machine: the clamp to the core count is not under test.
    _cpus(monkeypatch, 2)
    log, me = tmp_path / "spans", os.getpid()
    out = _fill_replications([(_logging_span(log), None, 8, 1)] * 4, workers)
    assert all(np.array_equal(vals, np.arange(8.0)) for vals, _ in out)
    ran = {float(pid) for _, pids in out for pid in pids}
    starts = sorted(lo for _, lo, event in _log(log) if event == "start")
    if workers == 1:
        # One span per job, all in this process, and no process is forked.
        assert starts == [0] * 4 and ran == {me}
    else:
        # Every span once; this process runs some, one child at most the rest.
        assert starts == sorted(list(range(8)) * 4) and me in ran and len(ran) <= 2
    assert {pid for pid, _, _ in _log(log)} == ran and _no_child_left()


def test_failed_span_stops_the_schedule(monkeypatch, tmp_path):
    # 32 spans of 4 replications on two workers; the second span that the
    # caller runs fails.  No span starts after it but one the child began
    # as it failed; the started ones finish, every child is reaped, and the
    # error is raised here with its type and message.
    _cpus(monkeypatch, 2)
    log = tmp_path / "spans"
    jobs = [(_logging_span(log, fail_in="parent"), None, 32, 1)] * 4
    with pytest.raises(RuntimeError, match="span at \\d+ failed in the parent$"):
        _fill_replications(jobs, 2)
    events = _log(log)
    fails = [k for k, (_, _, event) in enumerate(events) if event == "fail"]
    assert len(fails) == 1
    assert sum(event == "start" for _, _, event in events[fails[0]:]) <= 1
    starts = [(pid, lo) for pid, lo, event in events if event == "start"]
    ends = [(pid, lo) for pid, lo, event in events if event != "start"]
    assert sorted(starts) == sorted(ends) and 2 <= len(starts) <= 8
    assert _no_child_left()


def test_a_span_failed_in_a_child_is_run_by_the_caller(monkeypatch, tmp_path):
    # The child's first span, span 1 (replications 4..7 of the first job),
    # fails there and would not here: the caller runs it, with every span
    # the child's failure left undone, and the call returns the values of
    # one worker.
    _cpus(monkeypatch, 2)
    log, me = tmp_path / "spans", os.getpid()
    out = _fill_replications([(_logging_span(log, fail_in="child"), None, 32, 1)] * 4, 2)
    assert all(np.array_equal(vals, np.arange(32.0)) for vals, _ in out)
    events = _log(log)
    (k, (pid, lo, _)), = [(k, e) for k, e in enumerate(events) if e[2] == "fail"]
    assert pid != me and lo == 4 and (me, 4, "end") in events[k:]
    assert {pid for pid, _, event in events[k + 1:]} == {me}
    starts = sorted(lo for _, lo, event in events if event == "start")
    assert starts == sorted(list(range(0, 32, 4)) * 4 + [4]) and _no_child_left()


def test_a_span_that_fails_everywhere_raises_its_own_error(monkeypatch, tmp_path):
    # Span 1 of 8 (replications 4..7) fails wherever it runs, and it is the
    # child's first.  The caller runs it once the child is reaped and raises
    # its error from this process, before any later span left undone: at
    # most two spans start after the child's failure, one begun as it
    # failed and the re-run.
    _cpus(monkeypatch, 2)
    log, me = tmp_path / "spans", os.getpid()
    with pytest.raises(RuntimeError, match="^span at 4 failed in the parent$"):
        _fill_replications([(_logging_span(log, fail_at=4), None, 32, 1)], 2)
    events = _log(log)
    fails = [(k, pid) for k, (pid, _, event) in enumerate(events) if event == "fail"]
    assert len(fails) == 2 and fails[0][1] != me and fails[1][1] == me
    assert sum(event == "start" for _, _, event in events[fails[0][0]:]) <= 2
    assert _no_child_left()


def test_every_span_runs_once_on_more_workers_than_cores(monkeypatch, tmp_path):
    # Eight workers whatever this machine has, so seven children share 155
    # spans with the caller: a span run twice or never would show in the
    # log or a value.
    _cpus(monkeypatch, 8)
    logs = [tmp_path / f"spans{k}" for k in range(5)]
    out = _fill_replications([(_logging_span(log, pause=0), None, 400, 1) for log in logs], 8)
    for log, (vals, pids) in zip(logs, out):
        assert sorted(lo for _, lo, event in _log(log) if event == "start") == list(
            range(0, 400, 13))
        assert np.array_equal(vals, np.arange(400.0))
    assert len({float(pid) for _, pids in out for pid in pids}) <= 8 and _no_child_left()


@pytest.mark.parametrize("workers", [2, 8])
def test_span_edges_are_block_edges_above_one_worker(monkeypatch, tmp_path, workers):
    # Jobs of (R, block): the small-rows benchmark's blocks of 4096, 148 and
    # 64 replications at R = 200, crn-race's 1 at R = 20, and blocks that
    # divide neither R nor 4K.  A span is the fewest whole blocks that hold
    # ceil(R / 4K) replications: each edge is a multiple of its job's block
    # or is R, and a job has at most 4K spans.
    _cpus(monkeypatch, workers)
    shapes = [(200, 4096), (200, 148), (200, 64), (20, 1), (1000, 7), (5, 3)]
    logs = [tmp_path / f"spans{k}" for k in range(len(shapes))]

    def logged(log):
        def span(row, lo, hi):
            _append(log, f"{lo} {hi}\n")
            return np.arange(lo, hi, dtype=float), np.zeros(hi - lo)
        return span

    out = _fill_replications([(logged(log), None, R, block)
                              for log, (R, block) in zip(logs, shapes)], workers)
    for log, (R, block), (vals, _) in zip(logs, shapes, out):
        spans = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
        assert all(lo % block == 0 and (hi % block == 0 or hi == R) for lo, hi in spans)
        step = block * math.ceil(math.ceil(R / (4 * workers)) / block)
        assert spans == [(lo, min(lo + step, R)) for lo in range(0, R, step)]
        assert len(spans) <= 4 * workers and np.array_equal(vals, np.arange(float(R)))
    assert _no_child_left()


@pytest.mark.parametrize("workers", [2, 8])
@pytest.mark.parametrize("R", [8, 64])
def test_a_claimed_span_always_runs(monkeypatch, workers, R):
    # The children's spans are ten times as slow as the caller's, so the
    # caller finishes its share first: each child must still run its whole
    # share, and no replication keeps the 0.0 of a fresh mapping.
    _cpus(monkeypatch, workers)
    me = os.getpid()

    def span(row, lo, hi):
        time.sleep(0.002 if os.getpid() == me else 0.02)
        return np.ones(hi - lo), np.full(hi - lo, float(os.getpid()))

    (vals, pids), = _fill_replications([(span, make_root(0), R, 1)], workers)
    step = math.ceil(R / (4 * workers))  # span i holds replications i*step .. (i+1)*step - 1
    mine = np.arange(R) // step % workers == 0
    assert np.array_equal(vals, np.ones(R)) and np.all((pids == me) == mine)
    assert _no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_one_result_mapping_per_call(monkeypatch, workers):
    # The values of every row, the done flags and the stop flag share one
    # mapping, so a call makes exactly one, however many rows it has.
    _cpus(monkeypatch, 2)
    made, real = [], mmap.mmap

    def counted(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    def span(row, lo, hi):
        return np.arange(lo, hi) + row, np.zeros(hi - lo)

    monkeypatch.setattr(mmap, "mmap", counted)
    out = _fill_replications([(span, 10.0 * j, 2, 1) for j in range(1000)], workers)
    assert all(np.array_equal(vals, [10.0 * j, 10.0 * j + 1]) for j, (vals, _) in enumerate(out))
    assert len(made) == 1 and _no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_every_value_lands_in_place_over_many_spans(monkeypatch, workers):
    # 20,000 jobs of two replications: 20,000 or 40,000 spans, and every
    # value lands at its replication.
    _cpus(monkeypatch, 2)

    def span(row, lo, hi):
        return np.arange(lo, hi) + row, np.full(hi - lo, float(os.getpid()))

    out = _fill_replications([(span, 10.0 * j, 2, 1) for j in range(20000)], workers)
    assert all(np.array_equal(vals, [10.0 * j, 10.0 * j + 1]) for j, (vals, _) in enumerate(out))
    ran = {pid for _, pids in out for pid in pids}
    assert len(ran) == workers and float(os.getpid()) in ran and _no_child_left()


def test_a_killed_child_leaves_its_spans_to_the_caller(monkeypatch):
    # A child killed by a signal leaves its spans to the caller, and the
    # call returns the values of one worker.
    _cpus(monkeypatch, 2)
    me = os.getpid()

    def span(row, lo, hi):
        time.sleep(0.003)
        if os.getpid() != me:
            os.kill(os.getpid(), signal.SIGKILL)
        return np.arange(lo, hi, dtype=float), np.full(hi - lo, float(os.getpid()))

    (vals, pids), = _fill_replications([(span, None, 32, 1)], 2)
    assert np.array_equal(vals, np.arange(32.0)) and set(pids) == {float(me)}
    assert _no_child_left()


def test_a_fork_that_fails_leaves_every_span_to_the_workers_made(monkeypatch):
    # os.fork fails with EAGAIN: the caller runs the missing child's share
    # in its re-run, so the call returns the values of one worker, leaks no
    # file descriptor and leaves no child, call after call.
    _cpus(monkeypatch, 2)

    def span(row, lo, hi):
        return np.arange(lo, hi) + row, np.zeros(hi - lo)

    jobs = [(span, 10.0 * j, 8, 1) for j in range(4)]
    want = [vals.copy() for vals, _ in _fill_replications(jobs, 1)]

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd"))
    for _ in range(10):
        out = _fill_replications(jobs, 2)
        assert all(np.array_equal(vals, w) for (vals, _), w in zip(out, want))
    assert len(os.listdir("/proc/self/fd")) == fds and _no_child_left()


def test_workers_clamp_to_the_cpus_this_process_may_run_on(monkeypatch):
    # The machine has eight CPUs and this process's affinity set one: a
    # two-worker race forks no child and gives the one-worker ranking.
    p, policies = CATALOG["gauss-log"](), [TauPower(1, 1), FixedOuter(2)]
    want = compare_policies(p, 256, policies, 8, make_root(2))
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    assert compare_policies(p, 256, policies, 8, make_root(2), workers=2) == want


_WORKER_RUNNERS = {
    "convergence": lambda w: run_convergence(CATALOG["gauss-log"](), TauPower(1, 1), [16, 64],
                                             4, make_root(1), workers=w),
    "collapse": lambda w: run_collapse(CATALOG["linear-gauss"](), [16, 64], 4, make_root(1),
                                       workers=w),
    "fixed-inner": lambda w: run_fixed_inner(CATALOG["gauss-log"](), 4, [4, 16], 4,
                                             make_root(1), workers=w),
    "bias": lambda w: run_bias(CATALOG["gauss-log"](), 4, [2, 8], 4, make_root(1), workers=w),
    "policies": lambda w: compare_policies(CATALOG["gauss-log"](), 64, [TauPower(1, 1)], 4,
                                           make_root(1), workers=w),
}


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("runner", sorted(_WORKER_RUNNERS))
def test_every_runner_refuses_fewer_than_one_worker(monkeypatch, runner, workers):
    # The library path checks the worker count as the CLI does, before the
    # scheduler is called.
    def never(*args, **kwargs):
        raise AssertionError("scheduler called")

    monkeypatch.setattr(harness, "_fill_replications", never)
    with pytest.raises(ValueError, match=f"^workers must be >= 1, got {workers}$"):
        _WORKER_RUNNERS[runner](workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_no_pipe_is_made(monkeypatch, workers):
    # The shared mapping is all the processes share: a call that cannot
    # make a pipe still returns every value.
    _cpus(monkeypatch, 2)

    def no_pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    def span(row, lo, hi):
        return np.arange(lo, hi) + row, np.zeros(hi - lo)

    monkeypatch.setattr(os, "pipe", no_pipe)
    out = _fill_replications([(span, 10.0 * j, 8, 1) for j in range(4)], workers)
    assert all(np.array_equal(vals, np.arange(8) + 10.0 * j) for j, (vals, _) in enumerate(out))
    assert _no_child_left()


def test_worker_w_runs_spans_w_plus_multiples_of_k(monkeypatch, tmp_path):
    # Two jobs of 8 spans each (steps of 2 and 3 replications) on two
    # workers: the caller runs spans 0, 2, 4, ... of the whole table and
    # the child spans 1, 3, 5, ..., each in index order.
    _cpus(monkeypatch, 2)
    logs, me = [tmp_path / "spans0", tmp_path / "spans1"], os.getpid()
    _fill_replications([(_logging_span(logs[0], pause=0), None, 16, 1),
                        (_logging_span(logs[1], pause=0), None, 24, 1)], 2)
    ran = {}
    for base, (log, step) in enumerate(zip(logs, (2, 3))):
        for pid, lo, event in _log(log):
            if event == "start":
                ran.setdefault(pid, []).append(8 * base + lo // step)
    child, = set(ran) - {me}
    assert ran[me] == list(range(0, 16, 2)) and ran[child] == list(range(1, 16, 2))
    assert _no_child_left()


def test_no_span_starts_after_a_failure(monkeypatch, tmp_path):
    # 4,096 one-replication spans on two workers.  The caller's first span
    # fails while the child is inside its share: the child finishes the
    # span it has begun and starts no other, and the caller starts none.
    _cpus(monkeypatch, 2)
    log, me = tmp_path / "spans", os.getpid()

    def span(row, lo, hi):
        pid = os.getpid()
        _append(log, f"{pid} {row} start\n")
        time.sleep(0.03 if pid == me else 0.02)
        if pid == me:
            _append(log, f"{pid} {row} fail\n")
            raise RuntimeError(f"span {row} failed")
        _append(log, f"{pid} {row} end\n")
        return np.zeros(1), np.zeros(1)

    with pytest.raises(RuntimeError, match="^span 0 failed$"):
        _fill_replications([(span, j, 1, 1) for j in range(4096)], 2)
    events = _log(log)
    assert [e for e in events if e[0] == me] == [(me, 0, "start"), (me, 0, "fail")]
    k = events.index((me, 0, "fail"))
    assert sum(event == "start" for _, _, event in events[k:]) <= 1
    assert all(i % 2 for pid, i, _ in events if pid != me) and _no_child_left()


_BLOCK_LINES = {
    # The small-rows benchmark line: rows of N*M = 16..1024 at R = 200 take
    # 1, 1, 1, 1, 2 and 4 kernel blocks.
    "small-rows": (["converge", "--model", "gauss-log", "--budgets", "16:1024:6",
                    "--reps", "200", "--seed", "1"], 10),
    # 300 policies of one draw and two replications: one block each.
    "one-draw-policies": (["allocate", "--model", "gauss-log", "--T", "1", "--reps", "2",
                           "--seed", "1", "--policies", ";".join(["fixed-inner:M=1"] * 300)],
                          300),
}


@pytest.mark.parametrize("line", sorted(_BLOCK_LINES))
def test_every_worker_count_draws_the_same_kernel_blocks(capsys, monkeypatch, tmp_path, line):
    # Every kernel block, in every process, logs its first stream key and its
    # replication count.  Above one worker spans are cut at block edges, so
    # two workers draw exactly the blocks of one and print its bytes.
    _cpus(monkeypatch, 2)
    argv, count = _BLOCK_LINES[line]
    block = estimators.StreamBatch

    def logged(keys):
        _append(log, f"{keys[0]} {keys.size}\n")
        return block(keys)

    monkeypatch.setattr(estimators, "StreamBatch", logged)
    runs = []
    for workers in ("1", "2"):
        log = tmp_path / f"blocks{workers}"
        code = main(argv + ["--workers", workers])
        runs.append((code, capsys.readouterr(), sorted(log.read_text().splitlines())))
    assert runs[0][0] == 0 and len(runs[0][2]) == count
    assert runs[1] == runs[0]


def test_closure_models_give_the_same_report_on_forked_workers(monkeypatch):
    # Spans are inherited by the children, never pickled: a model built of
    # closures over local state runs on two workers, with one worker's bytes.
    _cpus(monkeypatch, 2)
    shift, scale = 0.25, 1.5

    def outer(s):
        return s.next_gaussian() * scale + shift

    def inner(s, y):
        return y + s.next_gaussian()

    p = NestedProblem(outer_sampler=outer, inner_sampler=inner,
                      phi=lambda y, z: np.exp(z - shift), f=lambda y, w: np.log(w) * scale,
                      name="closures", truth=shift)
    runs = {w: run_convergence(p, TauPower(1, 1), [16, 256, 1024], 12, make_root(3), workers=w)
            for w in (1, 2)}
    assert repr(runs[2]) == repr(runs[1]) and _no_child_left()


# Rows of many, four and three replications per block (N*M = 2**6, 2**14 and
# 2**14 + 1), and at and one above the block budget of 2**16 elements.
@pytest.mark.parametrize("N,M", [(8, 8), (128, 128), (113, 145), (256, 256), (131, 501)])
@pytest.mark.parametrize("workers", [1, 2])
def test_row_replications_equal_nmc_estimate_across_block_budget(N, M, workers):
    p = CATALOG["gauss-log"]()
    s = make_root(3)
    rep = run_convergence(p, FixedOuter(N), [N, N * M], 3, s, workers=workers)
    assert (rep.rows[1].N, rep.rows[1].M) == (N, M)
    expected = np.mean([nmc_estimate(p, N, M, s.split(1).split(r)).value
                        for r in range(3)])
    assert rep.rows[1].mean == expected


# A model without batch samplers has its scalar samplers run stream by
# stream (StreamBatch.each) under the same blocks, with the same values.
_RUNNERS = {
    # 4x4 and 130x130: rows of 4096 and 3 replications per block.
    "convergence": lambda p, s, w: run_convergence(p, TauPower(1, 1), [16, 16900], 2, s,
                                                   workers=w),
    "bias": lambda p, s, w: run_bias(p, 6, [2, 9], 3, s, workers=w),
    "policies": lambda p, s, w: compare_policies(p, 400, [TauPower(1, 1), FixedOuter(2)], 3,
                                                 s, workers=w),
    "collapsed": lambda p, s, w: run_collapse(p, [10, 300], 3, s, workers=w),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("runner", sorted(_RUNNERS))
def test_reports_equal_without_batch_samplers(runner, workers):
    p = CATALOG["linear-gauss"]()
    scalar = dataclasses.replace(p, outer_batch=None, inner_batch=None)
    run = _RUNNERS[runner]
    assert run(scalar, make_root(4), workers) == run(p, make_root(4), workers)


def test_convergence_worker_count_is_invisible():
    p = CATALOG["gauss-log"]()
    base = run_convergence(p, TauPower(1, 1), [16, 256, 1024], 25, make_root(9))
    for workers in (2, 4, 8):
        assert run_convergence(p, TauPower(1, 1), [16, 256, 1024], 25,
                               make_root(9), workers=workers) == base


def test_convergence_worker_count_is_invisible_above_one_chunk():
    # M = 70000 > 2**16: each outer draw's inner draws span two chunks, and
    # each of the two processes draws them into its own pooled buffers.
    p = CATALOG["gauss-log"]()
    run = lambda workers: run_convergence(p, FixedOuter(2), [8, 140000], 6, make_root(12),
                                          workers=workers)
    base = run(1)
    assert base.rows[1].M == 70000
    assert run(2) == base


def test_convergence_mse_strictly_decreasing_on_benchmark():
    # One sampling-noise inversion is allowed across the seven budget steps.
    p = CATALOG["gauss-log"]()
    rep = run_convergence(p, TauPower(1, 1), [4**k for k in range(2, 10)], 250,
                          make_root(7), workers=WORKERS)
    mses = [r.mse for r in rep.rows]
    drops = sum(1 for a, b in zip(mses, mses[1:]) if b < a)
    assert drops >= 6


# ---------------------------------------------------------------- run_collapse

def test_collapsed_sweep_rows_and_rate():
    p = CATALOG["linear-gauss"]()
    rep = run_collapse(p, [100, 1000, 10000], 150, make_root(5))[0]
    assert [(r.T, r.N, r.M) for r in rep.rows] == [(100, 100, 1),
                                                   (1000, 1000, 1),
                                                   (10000, 10000, 1)]
    assert rep.policy is None
    assert -1.3 < rep.fit.slope < -0.7


@pytest.mark.parametrize("workers", [1, 2])
def test_collapse_halves_replay_their_streams(monkeypatch, workers):
    # The collapsed half's row idx draws collapsed_replications on
    # s.split(0).split(idx); the nested half is run_convergence on s.split(1).
    # Both halves go to one scheduler call.
    _cpus(monkeypatch, 2)
    p, s, budgets, R = CATALOG["linear-gauss"](), make_root(5), [64, 16, 300], 5
    calls = []

    def recorded(jobs, w):
        calls.append(_fill_replications(jobs, w))
        return calls[-1]

    monkeypatch.setattr(harness, "_fill_replications", recorded)
    collapsed, nested = run_collapse(p, budgets, R, s, workers=workers)
    (filled,) = calls
    assert len(filled) == 6 and [r.T for r in collapsed.rows] == [16, 64, 300]
    for idx, r in enumerate(collapsed.rows):
        want = collapsed_replications(p, r.T, s.split(0).split(idx), 0, R)
        assert all(np.array_equal(a, b) for a, b in zip(filled[idx], want))
        assert (r.N, r.M) == (r.T, 1)
    assert nested == run_convergence(p, TauPower(1, 1), budgets, R, s.split(1))
    assert collapsed.policy is None and collapsed.root_seed == 5


# -------------------------------------------------------------------- run_bias

def test_bias_report_predictions_and_fit():
    p = CATALOG["bias-quad-pos"]()
    rep = run_bias(p, 300, [32, 2, 8], 200, make_root(11))
    assert [r.M for r in rep.rows] == [2, 8, 32]
    assert all(r.N == 300 and r.reps == 200 for r in rep.rows)
    for r in rep.rows:
        assert r.predicted == bias_quadratic_expected_value(r.M)
        assert r.mean_error > 0
        assert abs(r.mean_error - r.predicted) <= 3 * r.se
    assert -1.15 < rep.fit.slope < -0.85


def test_bias_without_prediction_leaves_column_empty():
    rep = run_bias(CATALOG["gauss-log"](), 200, [2, 8], 100, make_root(11))
    assert all(r.predicted is None for r in rep.rows)
    assert all(r.mean_error < 0 for r in rep.rows)  # downward for concave log


def test_bias_zero_error_degenerate_note():
    rep = run_bias(CATALOG["constant"](), 50, [2, 4], 10, make_root(0))
    assert rep.fit is None
    assert rep.fit_note == "degenerate: zero mean error"
    assert all(r.mean_error == 0.0 for r in rep.rows)


def test_bias_fit_notes_a_nan_mean_error():
    # log(w - 1) is NaN for every term (w < 1 on gauss-log), so no
    # replication is finite: converge and bias both note the degenerate fit
    # instead of raising.
    p = dataclasses.replace(CATALOG["gauss-log"](), f=lambda y, w: np.log(w - 1.0))
    conv = run_convergence(p, TauPower(1, 1), [16, 64], 3, make_root(0))
    assert conv.fit is None and conv.fit_note.startswith("fewer than 2 usable rows")
    rep = run_bias(p, 2, [2, 8], 3, make_root(0))
    assert rep.fit is None
    assert rep.fit_note == "degenerate: zero mean error"
    assert all(math.isnan(r.mean_error) for r in rep.rows)


def test_non_finite_replications_stay_out_of_mean_error_and_mse():
    # One outer draw per replication and a term that is NaN for y <= 0: some
    # replications are NaN, and bias rows and policy races average the
    # finite ones, as converge rows do.
    base = CATALOG["gauss-log"]()
    p = dataclasses.replace(base, f=lambda y, w: np.where(y > 0, np.log(w), np.nan))
    row = make_root(3).split(0)
    vals = nmc_replications(p, 1, 8, row, 0, 40)[0]
    used = vals[np.isfinite(vals)]
    assert 0 < used.size < vals.size
    rep = run_bias(p, 1, [8], 40, make_root(3))
    assert rep.rows[0].mean_error == float(np.mean(used)) - base.truth
    assert rep.rows[0].se == float(np.sqrt(np.var(used, ddof=1) / used.size))
    ranking = compare_policies(p, 8, [FixedOuter(1)], 40, row)
    assert ranking.results[0].mse == float(np.mean((used - base.truth) ** 2))


def test_bias_faults():
    p = CATALOG["bias-quad-pos"]()
    with pytest.raises(ValueError):
        run_bias(dataclasses.replace(p, truth=None), 10, [2, 4], 10, make_root(0))
    with pytest.raises(ValueError):
        run_bias(p, 0, [2, 4], 10, make_root(0))
    with pytest.raises(ValueError):
        run_bias(p, 10, [0, 4], 10, make_root(0))
    with pytest.raises(ValueError, match="empty inner-count grid"):
        run_bias(p, 10, [], 10, make_root(0))


def test_bias_worker_count_is_invisible():
    p = CATALOG["bias-quad-pos"]()
    base = run_bias(p, 100, [2, 8], 60, make_root(2))
    assert run_bias(p, 100, [2, 8], 60, make_root(2), workers=8) == base


# ------------------------------------------------------------- run_fixed_inner

def test_fixed_inner_plateau_versus_coupled_policy():
    # Fixed M: MSE(1e4)/MSE(1e5) stays near 1 (plateau); the coupled policy
    # at matched budgets keeps improving by more than 2x.
    p = CATALOG["bias-quad-pos"]()
    rep = run_fixed_inner(p, 5, [10**4, 10**5], 150, make_root(13), workers=WORKERS)
    assert [r.N for r in rep.rows] == [10**4, 10**5]
    assert all(r.M == 5 for r in rep.rows)
    ratio = rep.rows[0].mse / rep.rows[1].mse
    assert 0.8 <= ratio <= 1.5

    coupled = run_convergence(p, TauPower(1, 1), [5 * 10**4, 5 * 10**5], 150,
                              make_root(13), workers=WORKERS)
    assert coupled.rows[0].mse / coupled.rows[1].mse > 2.0


@pytest.mark.parametrize("Ns,match", [([-3, 16], "outer counts N must be >= 1, got -3"),
                                      ([0, 16], "outer counts N must be >= 1, got 0"),
                                      ([], "empty outer-count grid")])
def test_fixed_inner_faults_name_the_outer_count(monkeypatch, Ns, match):
    # The outer counts are checked before any budget N*M is made or split.
    p = CATALOG["gauss-log"]()
    monkeypatch.setattr(harness, "split_budget", None)
    with pytest.raises(ValueError, match=match):
        run_fixed_inner(p, 4, Ns, 4, make_root(0))
    with pytest.raises(ValueError, match="M must be >= 1, got 0"):
        run_fixed_inner(p, 0, [4], 4, make_root(0))


def test_fixed_inner_plateau_level():
    p = CATALOG["bias-quad-pos"]()
    rep = run_fixed_inner(p, 5, [10**5], 150, make_root(13), workers=WORKERS)
    target = bias_quadratic_expected_value(5) ** 2
    assert 0.5 * target <= rep.rows[0].mse <= 2.0 * target


# ------------------------------------------------------------ compare_policies

def test_compare_policies_ranking_and_crn():
    p = CATALOG["gauss-log"]()
    policies = [TauPower(0.5, 1), TauPower(1, 1), TauPower(2, 1)]
    ranking = compare_policies(p, 65536, policies, 150, make_root(4))
    assert [r.rank for r in ranking.results] == [1, 2, 3]
    assert ranking.results[0].policy == TauPower(1, 1)
    assert ranking.results[0].mse <= ranking.results[1].mse <= ranking.results[2].mse
    assert not ranking.tie
    assert ranking.T == 65536 and ranking.reps == 150


@pytest.mark.parametrize("workers", [1, 2])
def test_compare_policies_common_random_numbers(workers):
    # Replication r of every policy replays nmc_estimate on s.split(r): a
    # 128x128 shape of four replications per block, 2x8200 of three.
    p = CATALOG["gauss-log"]()
    s = make_root(6)
    ranking = compare_policies(p, 16400, [TauPower(1, 1), FixedOuter(2)], 4, s,
                               workers=workers)
    assert sorted((r.N, r.M) for r in ranking.results) == [(2, 8200), (128, 128)]
    for res in ranking.results:
        errs = np.array([nmc_estimate(p, res.N, res.M, s.split(r)).value
                         for r in range(4)]) - p.truth
        assert res.mse == float(np.mean(errs ** 2))


def test_compare_policies_tie_flag_on_constant():
    ranking = compare_policies(CATALOG["constant"](), 256,
                               [TauPower(1, 1), FixedInner(4)], 10, make_root(0))
    assert ranking.tie
    assert all(r.mse == 0.0 for r in ranking.results)


def test_compare_policies_single_policy():
    ranking = compare_policies(CATALOG["gauss-log"](), 1024, [TauPower(1, 1)],
                               10, make_root(0))
    assert len(ranking.results) == 1 and ranking.results[0].rank == 1


def test_compare_policies_faults_before_sampling():
    p = CATALOG["gauss-log"]()
    with pytest.raises(ValueError):
        compare_policies(p, 2, [TauPower(1, 1)], 10, make_root(0))
    with pytest.raises(ValueError):
        compare_policies(p, 1024, [], 10, make_root(0))
    with pytest.raises(ValueError):
        compare_policies(dataclasses.replace(p, truth=None), 1024,
                         [TauPower(1, 1)], 10, make_root(0))


def test_compare_policies_worker_count_is_invisible():
    p = CATALOG["gauss-log"]()
    policies = [TauPower(1, 1), TauPower(2, 1)]
    base = compare_policies(p, 4096, policies, 40, make_root(8))
    assert compare_policies(p, 4096, policies, 40, make_root(8), workers=8) == base
