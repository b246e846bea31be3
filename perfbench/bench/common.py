"""Shared plumbing: paths, the environment record, statistics, child processes.

Every child process the benchmark starts goes through :class:`Children`,
which stops and reaps all of them on ``close()`` (and asks the kernel to
signal them should the benchmark itself die first).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SERVE_SCRIPT = ROOT / "scripts" / "serve.py"
FRONTEND_SCRIPT = BENCH_DIR / "bench" / "frontend.py"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / "work"


def require_program() -> None:
    """Exit non-zero, printing no result, when the program's sources are absent."""
    if not (SRC / "repro" / "__init__.py").is_file() or not SERVE_SCRIPT.is_file():
        sys.stderr.write(
            f"perfbench: no program under {ROOT} (need src/repro and scripts/serve.py)\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- environment ---------------------------------------------------------------------
def git_commit() -> str | None:
    """HEAD's commit read from ``.git`` files, or ``None`` outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-1 over the program's Python sources, identifying code without git."""
    digest = hashlib.sha1()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    from repro.crypto import numbertheory

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "backend": numbertheory.get_backend(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha1": source_digest(),
    }


# -- statistics ----------------------------------------------------------------------
def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with ``fraction`` at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def tail(values, fraction: float, beyond: int = 10) -> float | None:
    """The ``fraction`` percentile, or ``None`` when fewer than ``beyond``
    samples lie above it (such a percentile would be no tail)."""
    if len(values) - math.ceil(fraction * len(values)) < beyond:
        return None
    return percentile(values, fraction)


# -- memory --------------------------------------------------------------------------
def peak_rss_mib(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# -- child processes ----------------------------------------------------------------
def _die_with_parent() -> None:
    """Ask the kernel to SIGTERM this child if the benchmark process dies."""
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except OSError:
        pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Children:
    """The benchmark's child processes; ``close()`` stops and reaps them all."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], *, stdout, stderr) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=stderr,
            env=child_env(),
            cwd=str(ROOT),
            preexec_fn=_die_with_parent,
            text=True,
        )
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self.procs:
            self.procs.remove(proc)

    def close(self) -> None:
        for proc in list(self.procs):
            self.stop(proc)


def read_address(proc: subprocess.Popen) -> tuple[str, int]:
    """Read the ``HOST PORT`` line a shard server or front-end prints when bound."""
    line = proc.stdout.readline().strip()
    parts = line.split()
    if len(parts) != 2:
        raise RuntimeError(f"child {proc.args!r} reported no address (got {line!r})")
    return parts[0], int(parts[1])


def wait_for_log_address(proc: subprocess.Popen, log_path: Path, timeout: float = 60.0):
    """Poll ``scripts/serve.py``'s log for its ``listening on HOST:PORT`` line."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for line in log_path.read_text().splitlines():
            marker = line.find("listening on ")
            if marker >= 0:
                address = line[marker + len("listening on "):].split()[0]
                host, _, port = address.rpartition(":")
                return host, int(port)
        if proc.poll() is not None:
            raise RuntimeError(f"serve.py exited with {proc.returncode}: {log_path.read_text()}")
        time.sleep(0.005)
    raise RuntimeError(f"serve.py did not report an address within {timeout}s")


def wait_healthy(client, timeout: float = 60.0) -> None:
    from repro.service.client import ServiceError

    deadline = time.monotonic() + timeout
    while True:
        try:
            if client.health().get("ok"):
                return
        except (ServiceError, OSError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"{client.host}:{client.port} not healthy within {timeout}s")
        time.sleep(0.005)


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
