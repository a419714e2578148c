import contextlib
import signal

import pytest

ACCEPTANCE_RESULTS = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        ACCEPTANCE_RESULTS.append((name, report.passed))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, passed in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(
            f"[{'PASS' if passed else 'FAIL'}] {name}")


@pytest.fixture
def time_limit():
    """``with time_limit(s):`` fails the test, rather than hanging it, when
    the body is still running after ``s`` seconds (SIGALRM, main thread)."""

    @contextlib.contextmanager
    def limit(seconds: int):
        def expired(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
