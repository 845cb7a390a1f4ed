"""One ``recoil serve`` subprocess: start, wait until it listens, read
its peak memory, stop it and wait until it has exited."""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

_LISTENING = re.compile(r"listening on ([^\s:]+):(\d+)")
_PR_SET_PDEATHSIG = 1

try:
    _prctl = ctypes.CDLL(None, use_errno=True).prctl
except (OSError, AttributeError):  # not Linux: rely on stop() alone
    _prctl = None


def _die_with_parent() -> None:
    """Runs in the child before exec: SIGTERM it if the load generator
    dies first, so a killed benchmark leaves no server behind."""
    if _prctl is not None:
        _prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def child_env(workdir: str) -> dict:
    """Environment for child processes: the checkout's sources, and a
    temp directory inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    return env


class Server:
    """A running server; ``setup_t0`` is when its process was started.

    :param traced: start through ``traced_server.py``, which wraps the
        layers' public functions in spans and adds ``--trace``.
    """

    def __init__(
        self,
        workdir: str,
        serve_args: list[str],
        *,
        traced: bool = False,
        start_timeout_s: float = 60.0,
    ) -> None:
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_server.py")]
            serve_args = [*serve_args, "--trace"]
        else:
            cmd = [sys.executable, "-m", "repro.cli"]
        cmd += ["serve", "--port", "0", "--demo-assets", "0", *serve_args]
        self.log_path = os.path.join(workdir, f"server-{time.time_ns()}.log")
        self._log = open(self.log_path, "wb")
        self.setup_t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(workdir),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            preexec_fn=_die_with_parent,
        )
        self._address: tuple[str, int] | None = None
        self._listening = threading.Event()
        self._reader = threading.Thread(
            target=self._read_stdout, name="perfbench-server-stdout",
            daemon=True,
        )
        self._reader.start()
        if not self._listening.wait(start_timeout_s) or self._address is None:
            self.stop()
            raise RuntimeError(
                f"server did not start listening within "
                f"{start_timeout_s:.0f}s; log: {self.tail()}"
            )

    def _read_stdout(self) -> None:
        # Drain stdout until EOF so the server never blocks on a full
        # pipe; the first "listening on" line carries the port.
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", "replace")
            match = _LISTENING.search(line)
            if match and self._address is None:
                self._address = (match.group(1), int(match.group(2)))
                self._listening.set()
        self._listening.set()

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory (VmHWM) in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def tail(self, limit: int = 2000) -> str:
        self._log.flush()
        with open(self.log_path, "rb") as fh:
            return fh.read()[-limit:].decode("utf-8", "replace")

    def stop(self, timeout_s: float = 20.0) -> int:
        """SIGTERM (graceful drain), SIGKILL if it overstays; waits for
        the process and its stdout reader either way."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout_s)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode
