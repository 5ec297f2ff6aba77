"""Run one child process at a time and take its wall time and its own peak RSS.

Peak RSS comes from os.wait4 on the child's pid: RUSAGE_CHILDREN is a
high-water mark over every child so far, so one big command would mask the
rest.  A pidfd bounds the wait without polling, so the wall time is not
rounded up to a poll interval.
"""

from __future__ import annotations

import os
import resource
import select
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    rss_mb: float
    returncode: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def _limit_address_space(limit: int):
    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


def run_child(
    argv: list[str],
    *,
    env: dict[str, str],
    workdir: Path,
    timeout: float,
    address_space: int | None = None,
) -> Outcome:
    """Run argv to completion (or kill it after `timeout` seconds) and reap it."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=env,
            preexec_fn=None if address_space is None else _limit_address_space(address_space),
        )
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                ready = poller.poll(timeout * 1000)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
            timed_out = not ready
            if timed_out:
                proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        timed_out=timed_out,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )
