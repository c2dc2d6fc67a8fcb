"""Service-test fixtures: no thread may outlive the test that started it.

A handler thread that outlives its server keeps writing access-log
lines after pytest has stopped capturing them, and keeps a broker (and
its cache directory) alive into the next test.
"""

import threading
import time

import pytest

#: seconds a test's threads get to finish after its teardown.
JOIN_GRACE_S = 0.5


@pytest.fixture(autouse=True)
def no_leaked_threads():
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + JOIN_GRACE_S
    for thread in threading.enumerate():
        if thread not in before:
            thread.join(max(0.0, deadline - time.monotonic()))
    leaked = [
        thread.name
        for thread in threading.enumerate()
        if thread not in before and thread.is_alive()
    ]
    assert not leaked, f"threads outlived the test: {leaked}"
