"""Wall-clock sampling profiler: collapsed stacks, top table, exclusions."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import SamplingProfiler
from repro.obs.profiler import profile


class StopFlag:
    """A plain attribute to poll: reading it runs no Python callee, so every
    sample of the spinner's thread ends in ``spin_briefly`` itself."""

    raised = False


def spin_briefly(stop: StopFlag) -> None:
    while not stop.raised:
        sum(range(200))


class TestSamplingProfiler:
    def test_samples_a_busy_thread_into_collapsed_stacks(self):
        stop = StopFlag()
        worker = threading.Thread(target=spin_briefly, args=(stop,),
                                  name="busy")
        worker.start()
        try:
            with SamplingProfiler(interval=0.002) as profiler:
                time.sleep(0.15)
        finally:
            stop.raised = True
            worker.join()
        assert profiler.samples > 5
        collapsed = profiler.collapsed()
        assert any("spin_briefly" in stack for stack in collapsed)
        # Stacks are rooted at the outermost frame (thread bootstrap).
        busy = next(s for s in collapsed if "spin_briefly" in s)
        assert busy.split(";")[-1].endswith("spin_briefly")

    def test_collapsed_text_is_flamegraph_format(self):
        profiler = SamplingProfiler()
        profiler._collapsed = {"a.main;b.work": 3, "a.main": 1}
        text = profiler.collapsed_text()
        assert text.splitlines() == ["a.main;b.work 3", "a.main 1"]

    def test_top_splits_self_from_total(self):
        profiler = SamplingProfiler()
        profiler._collapsed = {"a.main;b.work": 8, "a.main;c.other": 2}
        by_frame = {row["frame"]: row for row in profiler.top()}
        assert by_frame["a.main"]["total"] == 10
        assert by_frame["a.main"]["self"] == 0
        assert by_frame["b.work"]["self"] == 8
        # Ranked by self time: the leaves come first.
        assert profiler.top(limit=1)[0]["frame"] == "b.work"

    def test_caller_thread_is_never_sampled(self):
        with SamplingProfiler(interval=0.002) as profiler:
            deadline = time.monotonic() + 0.1
            while time.monotonic() < deadline:
                sum(range(200))
        assert all("test_caller_thread_is_never_sampled" not in stack
                   for stack in profiler.collapsed())

    def test_report_carries_everything_the_endpoint_serves(self):
        with SamplingProfiler(interval=0.005) as profiler:
            time.sleep(0.02)
        report = profiler.report(seconds=0.02)
        assert set(report) == {"interval", "seconds", "samples",
                               "stacks_sampled", "collapsed",
                               "collapsed_text", "top"}

    def test_double_start_raises_and_stop_is_idempotent(self):
        profiler = SamplingProfiler().start()
        with pytest.raises(RuntimeError):
            profiler.start()
        profiler.stop()
        profiler.stop()

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)


class TestProfileFunction:
    def test_profiles_other_threads_for_the_duration(self):
        stop = StopFlag()
        worker = threading.Thread(target=spin_briefly, args=(stop,))
        worker.start()
        try:
            report = profile(0.1, interval=0.002)
        finally:
            stop.raised = True
            worker.join()
        assert report["seconds"] == pytest.approx(0.1)
        assert report["stacks_sampled"] > 0
        assert "spin_briefly" in report["collapsed_text"]

    def test_duration_clamps_to_the_floor(self):
        report = profile(0.0)
        assert report["seconds"] == pytest.approx(0.05)
