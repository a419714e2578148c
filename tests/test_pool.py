"""The worker pool: outputs equal the in-process loop byte for byte, errors
keep their class, an early close leaves no job running, workers run BLAS
with one thread, and no helper process outlives the interpreter."""

import ast
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import touchlab
from touchlab import errors, experiments, optics, pool
from touchlab.cli import EXIT_CONFIG, main

LINUX = sys.platform.startswith("linux")
SRC = Path(touchlab.__file__).parents[1]
DEMOS = SRC.parent / "demos"


def set_workers(monkeypatch, n):
    monkeypatch.setattr(pool, "worker_count", lambda: n)


def window_digest(w) -> str:
    h = hashlib.sha256(repr((w.action_label, w.material_label, w.finger_id,
                             w.window_start_ns)).encode())
    for a in (w.visuotactile, w.audio, w.inertial, w.pressure):
        h.update(a.tobytes())
    return h.hexdigest()


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


def render_then_threads():
    """A pool job: one contact render, then this process's id and threads."""
    optics.render(optics.ScatterSurface.gaussian(20.0),
                  contacts=optics.SWEEP_CONTACTS[:3], photons=100_000, seed=0)
    return os.getpid(), thread_count()


def kill_self():
    """A pool job that kills its worker."""
    os.kill(os.getpid(), signal.SIGKILL)


def cpu_ticks(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


def start_session(code: str, **kwargs) -> subprocess.Popen:
    """Run ``code`` in a child interpreter that leads a new session."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            start_new_session=True, **kwargs)


def session_members(sid: int) -> list:
    """The processes still listed in session ``sid`` (field 6 of
    /proc/<pid>/stat)."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            pids.append(int(entry.name))
    return pids


SWEEP_POINTS = (5.0, "lambertian")


class TestSameBytes:
    def test_sweep_rows_and_images(self, monkeypatch):
        plan = [(optics.sweep_surface(a), contacts, 100_000, 0)
                for a in SWEEP_POINTS for contacts in ((), optics.SWEEP_CONTACTS)]
        out = {}
        for n in (1, 2):
            set_workers(monkeypatch, n)
            rows = optics.scatter_sweep(alphas=SWEEP_POINTS, photons=100_000)
            images = [img.values.tobytes()
                      for img in pool.ordered_map(optics.render, plan)]
            out[n] = rows, images
        assert out[1] == out[2]

    @pytest.fixture(scope="class")
    def serial_windows(self):
        """Digests of ``iter_fusion_windows(1)`` at 1 worker, per
        (trial, finger) job, with the jobs themselves."""
        with pytest.MonkeyPatch.context() as mp:
            set_workers(mp, 1)
            jobs = experiments._fusion_jobs(1, 0, 2.66, 0.665)
            per_job = [[] for _ in jobs]
            for trial, w in experiments.iter_fusion_windows(trials_per_class=1):
                per_job[trial * 4 + w.finger_id].append(window_digest(w))
        return jobs, per_job

    def test_fusion_windows(self, monkeypatch, serial_windows):
        _, per_job = serial_windows
        set_workers(monkeypatch, 2)
        got = [(trial, window_digest(w))
               for trial, w in experiments.iter_fusion_windows(trials_per_class=1)]
        assert got == [(i // 4, d) for i, digests in enumerate(per_job) for d in digests]

    def test_gas_sweep(self, monkeypatch):
        per_seed = {}
        for n in (1, 2):
            set_workers(monkeypatch, n)
            sweep = experiments.gas_integration_sweep(
                (6.0, 30.0, 90.0), n_seeds=3, n_per_material=10)
            per_seed[n] = sweep["per_seed"].tobytes()
        assert per_seed[1] == per_seed[2]

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(picks=st.lists(st.integers(0, 35), min_size=2, max_size=6, unique=True))
    def test_fusion_job_subsets(self, monkeypatch, serial_windows, picks):
        jobs, per_job = serial_windows
        set_workers(monkeypatch, 2)
        got = pool.ordered_map(experiments._finger_windows, [jobs[i] for i in picks])
        assert [[window_digest(w) for w in ws] for ws in got] == \
            [per_job[i] for i in picks]


class TestWorkers:
    def test_error_keeps_its_class(self, monkeypatch, tmp_path):
        set_workers(monkeypatch, 2)
        with pytest.raises(errors.BudgetTooSmall):
            optics.scatter_sweep(alphas=(5.0,), photons=50_000)
        assert main(["bench-optics", "--alpha-sweep", "5", "--photons", "50000",
                     "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG

    def test_gas_seed_error_keeps_its_class(self, monkeypatch):
        set_workers(monkeypatch, 2)
        with pytest.raises(errors.EmptyDataset):  # one approach: no test row
            experiments.gas_integration_sweep((6.0,), n_seeds=2, n_per_material=1)

    @pytest.mark.parametrize("times,n_seeds", [
        ((6.0,), 0), ((6.0,), -1), ((), 2), ((0.0,), 2), ((-5.0,), 2),
        ((float("nan"),), 2), ((float("inf"),), 2), ((6.0, 90.5), 2)],
        ids=["no_seeds", "negative_seeds", "no_times", "zero_time",
             "negative_time", "nan_time", "inf_time", "beyond_approach"])
    def test_gas_sweep_checks_inputs_before_jobs(self, monkeypatch, times, n_seeds):
        def fail(*args, **kwargs):
            raise AssertionError("a job was submitted or a dataset built")
        monkeypatch.setattr(pool, "ordered_map", fail)
        monkeypatch.setattr(experiments, "make_gas_dataset", fail)
        with pytest.raises(errors.ConfigError):
            experiments.gas_integration_sweep(times, n_seeds=n_seeds)

    @pytest.mark.skipif(not LINUX, reason="reads /proc")
    def test_close_leaves_no_job_running(self, monkeypatch):
        set_workers(monkeypatch, 2)
        windows = experiments.iter_fusion_windows(trials_per_class=1)
        next(windows)
        windows.close()
        workers = [p.pid for p in multiprocessing.active_children()]
        assert len(workers) == 2
        before = [cpu_ticks(pid) for pid in workers]
        time.sleep(0.5)
        assert [cpu_ticks(pid) for pid in workers] == before

    def test_broken_pool_is_replaced(self, monkeypatch):
        set_workers(monkeypatch, 2)
        jobs = [(2, 3), (3, 2), (2, 5)]
        assert list(pool.ordered_map(pow, jobs)) == [8, 9, 32]
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        time.sleep(0.5)  # for the pool's manager thread to see the death
        assert list(pool.ordered_map(pow, jobs)) == [8, 9, 32]

    def test_worker_death_during_a_call_raises(self, monkeypatch):
        set_workers(monkeypatch, 2)
        with pytest.raises(BrokenProcessPool):
            list(pool.ordered_map(kill_self, [(), ()]))
        assert list(pool.ordered_map(pow, [(2, 3), (3, 2)])) == [8, 9]

    @pytest.mark.skipif(not LINUX, reason="reads /proc")
    def test_workers_run_one_thread(self, monkeypatch):
        set_workers(monkeypatch, 2)
        env = dict(os.environ)
        results = list(pool.ordered_map(render_then_threads, [(), ()]))
        assert all(pid != os.getpid() and threads == 1 for pid, threads in results)
        assert dict(os.environ) == env

    @pytest.mark.skipif(not LINUX, reason="reads /proc")
    def test_no_process_outlives_the_parent(self):
        code = ("import os\n"
                "from touchlab import optics, pool\n"
                "pool.worker_count = lambda: 2\n"
                "env = dict(os.environ)\n"
                "optics.scatter_sweep(alphas=(5.0, 'lambertian'), photons=100_000)\n"
                "assert dict(os.environ) == env\n")
        proc = start_session(code)
        assert proc.wait(timeout=120) == 0
        assert session_members(proc.pid) == []

    @pytest.mark.skipif(not LINUX, reason="reads /proc")
    def test_no_worker_outlives_a_killed_parent(self):
        code = ("import os, signal\n"
                "from touchlab import pool\n"
                "pool.worker_count = lambda: 2\n"
                "assert list(pool.ordered_map(pow, [(2, 3), (3, 2)])) == [8, 9]\n"
                "os.kill(os.getpid(), signal.SIGKILL)\n")
        proc = start_session(code, stderr=subprocess.DEVNULL)
        assert proc.wait(timeout=120) == -signal.SIGKILL
        deadline = time.monotonic() + 10
        try:
            while session_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert session_members(proc.pid) == []
        finally:
            for pid in session_members(proc.pid):
                os.kill(pid, signal.SIGKILL)


def test_demos_define_but_do_not_run_at_import():
    """A spawn worker imports the main script again, so a demo may hold at
    module level only imports, definitions, constants and the
    ``if __name__ == "__main__":`` guard."""
    def allowed(node):
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                             ast.ClassDef)):
            return True
        if isinstance(node, ast.Expr):  # the docstring
            return isinstance(node.value, ast.Constant)
        if isinstance(node, ast.Assign):
            try:
                ast.literal_eval(node.value)
                return True
            except ValueError:
                return False
        return isinstance(node, ast.If) and ast.unparse(node.test) == \
            "__name__ == '__main__'"

    demos = sorted(DEMOS.glob("*.py"))
    assert len(demos) == 9
    for path in demos:
        tree = ast.parse(path.read_text())
        bad = [node.lineno for node in tree.body if not allowed(node)]
        assert bad == [], f"{path.name} runs code at import, lines {bad}"
        assert isinstance(tree.body[-1], ast.If), f"{path.name} has no main guard"
