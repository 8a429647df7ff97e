"""A call run in a forked child on a second CPU, as `features`, `batch`,
`accuracy`, `split` and `stats` run theirs; it loads no numpy."""

import ctypes
import os
import pickle
import signal


def _usable_cpus() -> int:
    """CPUs this process may run on (os.sched_getaffinity, so taskset and
    container CPU sets count); 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _die_with(parent: int) -> None:
    """Have the kernel SIGKILL this forked child when the thread that forked
    it ends, by a signal too; exit at once if ``parent`` ended before that."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL):
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # now a child of another process: no one waits
        os._exit(1)


class _ForkedCall:
    """fn(*args) in a forked child when this process may use more than one
    CPU, else right here.

    The child gets the arguments through the fork and sends back only its
    pickled result. Calling the object waits for the child and returns that
    result, or raises the child's exception (its type and message), or
    ChildProcessError if the child died. Run here, fn runs at once and an
    exception it raises is likewise raised only when the object is called.
    close() kills and reaps a child that has not been waited for, and the
    kernel kills the child when the thread that forked it ends, by a signal
    too, so no child outlives its caller. Forks happen only where
    os.sched_getaffinity exists, which is Linux, where
    prctl(PR_SET_PDEATHSIG) does too.
    """

    def __init__(self, fn, *args):
        self._pid = 0
        if _usable_cpus() == 1:
            try:
                self._outcome = (True, fn(*args))
            except Exception as exc:
                self._outcome = (False, exc)
            return
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        try:
            # the only other threads here are OpenBLAS's, which it stops at a
            # fork (pthread_atfork) and starts again when next used
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            status = 1
            try:  # whatever happens, the child leaves here and nowhere else
                os.close(read_fd)
                try:
                    _die_with(parent)
                    result = (True, fn(*args))
                except Exception as exc:
                    result = (False, exc)
                with open(write_fd, "wb") as fh:
                    pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self._pid, self._pipe = pid, open(read_fd, "rb")

    def __call__(self):
        if self._pid:
            data = self._pipe.read()  # to EOF: the child has exited or is exiting
            code = os.waitstatus_to_exitcode(self._reap())
            if code < 0:
                raise ChildProcessError(f"forked child killed by {signal.Signals(-code).name}")
            if code:
                raise ChildProcessError(f"forked child exited with status {code}")
            self._outcome = pickle.loads(data)
        ok, value = self._outcome
        if not ok:
            raise value
        return value

    def close(self) -> None:
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        _, status = os.waitpid(self._pid, 0)
        self._pid = 0
        self._pipe.close()
        return status
