"""Line-protocol client of the service daemon, and the daemon spawner.

:class:`SoakClient` pipelines newline-delimited ops over one socket and
:func:`spawn_daemon` starts ``python -m repro.experiments serve`` and
waits for its ready line.  The churn soak (``benchmarks/bench_soak.py``)
and the repo benchmark's ``service_churn`` workload drive a daemon
through them.  The module is stdlib only: a client loads no control
plane.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Wall seconds to wait for a spawned daemon's ready line.
_SPAWN_TIMEOUT = 120.0


class SoakError(RuntimeError):
    """A soak step that failed hard (daemon died, op rejected, ...)."""


class SoakClient:
    """Line-protocol client with pipelining.

    One socket, newline-delimited ops; :meth:`ops` writes a whole batch
    before reading the same number of response lines back, which is what
    makes 100k-join soaks feasible over localhost.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self.sock.close()

    def ops(self, lines: List[str]) -> List[str]:
        """Pipeline a batch of ops; return one response line per op."""
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        self.sock.sendall(payload)
        responses = []
        for _ in lines:
            response = self._reader.readline()
            if not response:
                raise SoakError("daemon closed the connection mid-batch")
            responses.append(response.rstrip("\n"))
        return responses

    def op(self, line: str) -> str:
        return self.ops([line])[0]

    def must(self, line: str) -> str:
        """Send one op and require an ``ok`` response."""
        response = self.op(line)
        if not response.startswith("ok"):
            raise SoakError(f"op {line!r} failed: {response}")
        return response

    def stats(self) -> Dict[str, object]:
        response = self.must("stats")
        return json.loads(response[len("ok ") :])


@dataclass
class DaemonProcess:
    """A spawned ``serve`` subprocess and its bound address."""

    process: subprocess.Popen
    host: str
    port: int

    def kill(self) -> None:
        """Terminate without ceremony (the durability test's 'crash')."""
        self.process.kill()
        self.process.wait(timeout=30)

    def quit(self, client: Optional[SoakClient] = None) -> None:
        if client is not None:
            try:
                client.op("quit")
            except (OSError, SoakError):
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)


def spawn_daemon(serve_args: List[str]) -> DaemonProcess:
    """Start ``python -m repro.experiments serve`` and wait for its port.

    Raises :class:`SoakError` (after killing the child) when the ready
    line has not arrived within ``_SPAWN_TIMEOUT`` seconds.
    """
    command = [sys.executable, "-m", "repro.experiments", "serve", *serve_args]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=dict(os.environ),
    )
    deadline = time.monotonic() + _SPAWN_TIMEOUT
    assert process.stdout is not None
    # Read the descriptor, not the buffered file: ``readline()`` blocks
    # for as long as a hung daemon stays silent, and a line already in
    # the file's buffer would never make the descriptor readable again.
    descriptor = process.stdout.fileno()
    pending = b""
    try:
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            if not select.select([descriptor], [], [], remaining)[0]:
                process.kill()
                process.wait()
                raise SoakError("daemon did not print its ready line in time")
            chunk = os.read(descriptor, 65536)
            if not chunk:
                process.wait()
                raise SoakError(f"daemon exited early (code {process.returncode})")
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                if line.startswith(b"serving on "):
                    address = line.split()[2].decode()
                    host, _, port = address.rpartition(":")
                    return DaemonProcess(process=process, host=host, port=int(port))
    except SoakError:
        process.stdout.close()
        raise
