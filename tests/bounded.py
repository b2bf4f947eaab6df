"""Run Python code in a child process bounded in time and memory.

For tests of calls that once hung or grew without bound: such a call, run
bare, would stall the suite or exhaust the machine; here it fails the test
through TimeoutExpired or a MemoryError in the child instead.
"""

import resource
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_bounded(code: str, timeout: float = 60.0, memory: int = 2 << 30):
    """`python -c code` with PYTHONPATH=src, its address space capped at
    `memory` bytes and its run at `timeout` seconds; the CompletedProcess
    with text output."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit, env={"PYTHONPATH": SRC})
