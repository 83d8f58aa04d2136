"""Work cut into parts and run in forked processes, one per usable CPU.

`taskmetrics.score_corpus` scores segments this way, and
`corpus.read_tsv_columns` parses a large file. The metrics and the parser are
Python code that holds the interpreter lock, so threads would only contend
for it. The caller runs the first part itself and forks a child for each
other one; a child sends its result back as one pickle through a pipe and
leaves by `os._exit`.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar

P = TypeVar("P")
R = TypeVar("R")


def part_count(units: int, minimum: int) -> int:
    """One part per usable CPU, while each part holds `minimum` units; one
    without `os.fork`."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, units // minimum))


def run_parts(work: Callable[[P], R], parts: Sequence[P], what: str) -> list[R]:
    """`work` of each part, in order: the first here, every other one in a
    forked child. Every child is reaped before this returns or raises. A child
    that ends without sending its result raises RuntimeError, which names the
    child a `what` process."""
    children: dict[int, BinaryIO] = {}  # pid -> the read end of its pipe
    try:
        for part in parts[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = _fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(read_fd, write_fd, work, part)
            children[pid] = open(read_fd, "rb")
            os.close(write_fd)
        results = [work(parts[0])]
        for pid, pipe in list(children.items()):
            with pipe:  # read before waiting: a child blocks on a full pipe until then
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                raise RuntimeError(
                    f"a {what} process ended with status {status} before sending its result"
                )
            results.append(pickle.loads(data))  # written by our own child
        return results
    finally:
        if children:  # interrupted, or a child failed: end the others
            import signal  # only here, so that importing the package loads nothing more

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns when a process with other threads forks, because a
        # lock one of them holds stays held in the child. numpy's OpenBLAS starts
        # threads at import. A child runs Python code and numpy's element-wise
        # and reducing routines (a reading child calls `fromiter`, `isnan` and
        # `any`, say), which take none of those threads' locks; it calls no BLAS
        # routine, which would hand work to them, and leaves by os._exit, so it
        # waits on none of their locks.
        warnings.filterwarnings(
            "ignore", r"This process .*is multi-threaded, use of fork\(\)", DeprecationWarning
        )
        return os.fork()


def _child(read_fd: int, write_fd: int, work: Callable[[P], R], part: P) -> NoReturn:
    """Run `work` on one part and send the result to the parent as one pickle,
    then leave by os._exit: a child never returns into its caller's code (a
    `finally`, say) and never flushes a buffer it inherited, so nothing is
    written twice."""
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pickle.dump(work(part), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
