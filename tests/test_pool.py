"""The worker pool: outputs equal the in-process loop byte for byte, errors
keep their class, inputs are checked before any job, a job's own map runs
in its worker, an early close leaves no job running and no shared-memory
segment, workers run BLAS with one thread, and no helper process outlives
the interpreter."""

import ast
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import touchlab
from touchlab import errors, experiments, optics, pool, synth
from touchlab.cli import EXIT_CONFIG, main
from touchlab.core import ModalityKind
from touchlab.recordlog import log_to_bytes

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


def raise_with_pid(_):
    """A pool job that fails with a TouchlabError naming its process."""
    raise errors.ShapeMismatch(str(os.getpid()))


def nested_pids():
    """A pool job that runs an ``ordered_map`` of its own, as if on two CPUs:
    its pid, the inner jobs' pids and the processes it has started."""
    saved = pool.worker_count
    pool.worker_count = lambda: 2
    try:
        inner = list(pool.ordered_map(os.getpid, [(), (), ()]))
    finally:
        pool.worker_count = saved
    return os.getpid(), inner, len(multiprocessing.active_children())


def refuse(*args, **kwargs):
    raise AssertionError("a job was submitted or work started")


def segments() -> set:
    """The shared-memory segments ``multiprocessing.shared_memory`` names."""
    return set(Path("/dev/shm").glob("psm_*"))


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


@st.composite
def pooled_scripts(draw):
    """Scenarios on 1-4 fingers with events of every kind, at 30/60/240 fps:
    at 240 fps a finger has 24-120 frames, 1-3 jobs of
    ``synth.FRAMES_PER_JOB``, the last one mostly short."""
    duration = draw(st.floats(0.1, 0.5))
    fingers = tuple(sorted(draw(st.sets(st.sampled_from(synth.FINGERS), min_size=1))))
    events, t = [], 0.0
    for kind in draw(st.permutations(synth.EVENT_KINDS)):
        t_start = t + draw(st.floats(0.0, 0.03))
        t = t_start + draw(st.floats(0.02, 0.1))
        if t > duration:
            break
        material = draw(st.sampled_from(["wood", "silicone", "coffee-powder"]))
        events.append(synth.Event(t_start, t, kind, synth.ObjectSpec(material),
                                  draw(st.sets(st.sampled_from(fingers), min_size=1))))
    return synth.ScenarioScript(
        seed=draw(st.integers(0, 2**32)), duration_s=duration, events=events,
        fingers=fingers,
        rates={ModalityKind.VISUOTACTILE: draw(st.sampled_from([30.0, 60.0, 240.0])),
               ModalityKind.SURFACE_AUDIO: 8000.0})


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

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(script=pooled_scripts(), data=st.data())
    def test_scenario_logs(self, monkeypatch, script, data):
        """``run_scenario`` makes its frames in jobs of
        ``synth.FRAMES_PER_JOB``: whole logs, with all frames or a subset
        whose blocks start anywhere, are byte-equal at 1 and 2 workers."""
        n = synth.stream_times(script, ModalityKind.VISUOTACTILE)[0].size
        frames = data.draw(st.one_of(st.none(), st.integers(0, 2**n - 1).map(
            lambda bits: [i for i in range(n) if bits >> i & 1])))
        logs = []
        for workers in (1, 2):
            set_workers(monkeypatch, workers)
            logs.append(log_to_bytes(synth.run_scenario(script, frames=frames)))
        assert logs[0] == logs[1]

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
    def test_error_keeps_its_class(self, monkeypatch):
        set_workers(monkeypatch, 2)
        with pytest.raises(errors.ShapeMismatch) as caught:
            list(pool.ordered_map(raise_with_pid, [(0,), (1,)]))
        assert str(caught.value) != str(os.getpid())

    @pytest.mark.parametrize("photons,error", [
        (5, errors.BudgetTooSmall), (optics.MIN_PHOTONS - 1, errors.BudgetTooSmall),
        (optics.MAX_PHOTONS + 1, errors.ConfigError)], ids=["5", "below", "above"])
    def test_sweep_checks_photons_before_jobs(self, monkeypatch, tmp_path, photons, error):
        monkeypatch.setattr(pool, "ordered_map", refuse)
        with pytest.raises(error):
            optics.scatter_sweep(alphas=(5.0,), photons=photons)
        assert main(["bench-optics", "--alpha-sweep", "5", "--photons", str(photons),
                     "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("script,frames", [
        ({"seed": -1, "duration_s": 1.0}, None),
        ({"seed": 0, "duration_s": float("nan")}, None),
        ({"seed": 0, "duration_s": 1.0}, [3, 1]),
        ({"seed": 0, "duration_s": 1.0}, [5, 5]),
        ({"seed": 0, "duration_s": 1.0}, [0, 240]),
        ({"seed": 0, "duration_s": 1.0}, [-1, 0])],
        ids=["bad_seed", "nan_duration", "decreasing_frames", "repeated_frame",
             "frame_past_the_end", "negative_frame"])
    def test_scenario_checks_inputs_before_jobs(self, monkeypatch, script, frames):
        """A bad script is refused when it is made, bad frames by run_scenario."""
        set_workers(monkeypatch, 2)
        monkeypatch.setattr(pool, "ordered_map", refuse)
        monkeypatch.setattr(synth, "_synth_visuotactile", refuse)
        with pytest.raises(errors.ConfigError):
            synth.run_scenario(synth.ScenarioScript(**script), frames=frames)

    def test_nested_map_runs_in_the_worker(self, monkeypatch):
        set_workers(monkeypatch, 2)
        results = list(pool.ordered_map(nested_pids, [(), ()]))
        for pid, inner, children in results:
            assert pid != os.getpid()
            assert inner == [pid] * 3
            assert children == 0

    @pytest.mark.skipif(not LINUX, reason="reads /dev/shm")
    def test_array_results_leave_no_segment(self, monkeypatch):
        set_workers(monkeypatch, 2)
        before = segments()
        jobs = [((3, 4), k) for k in range(6)]
        assert [a.tolist() for a in pool.ordered_map(np.full, jobs)] == \
            [np.full(*job).tolist() for job in jobs]
        results = pool.ordered_map(np.full, jobs)
        next(results)
        results.close()
        assert segments() - before == set()

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
    def test_record_leaves_no_process(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "seed": 5, "duration_s": 0.5, "fingers": [0, 1],
            "rates": {"surface_audio": 8000},
            "events": [{"t_start": 0.1, "t_end": 0.4, "kind": "stir",
                        "material": "silicone", "finger_ids": [0, 1]}]}))
        args = ["record", str(scenario), "--out", str(tmp_path / "log.d36r")]
        code = ("from touchlab import cli, pool\n"
                "pool.worker_count = lambda: 2\n"
                f"assert cli.main({args!r}) == 0\n")
        before = segments()
        proc = start_session(code, stdout=subprocess.DEVNULL)
        assert proc.wait(timeout=120) == 0
        assert session_members(proc.pid) == []
        assert segments() - before == set()

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
