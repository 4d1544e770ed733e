"""Host readings: machine CPU time from /proc/stat, process RSS, host context.

Everything here reads /proc directly (psutil is not a dependency).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

# a run whose in-window steal exceeds this share of all CPU time is flagged
HIGH_STEAL_PCT = 5.0


@dataclass(frozen=True)
class CpuTimes:
    """Machine-wide CPU seconds since boot, split the way the metrics use it."""

    busy: float  # user + nice + system + irq + softirq
    steal: float
    total: float  # every column of the aggregate "cpu" line

    def __sub__(self, other: "CpuTimes") -> "CpuTimes":
        return CpuTimes(
            self.busy - other.busy, self.steal - other.steal, self.total - other.total
        )

    @property
    def steal_pct(self) -> float:
        return 100.0 * self.steal / self.total if self.total > 0 else 0.0


def parse_proc_stat(text: str, hz: float = 100.0) -> CpuTimes:
    """Parse the aggregate ``cpu`` line of /proc/stat.

    Columns: user nice system idle iowait irq softirq steal [guest guest_nice].
    guest time is already counted inside user/nice, so it is not added again.
    """
    for line in text.splitlines():
        f = line.split()
        if f and f[0] == "cpu":
            v = [float(x) for x in f[1:]] + [0.0] * 8
            user, nice, system, idle, iowait, irq, softirq, steal = v[:8]
            busy = user + nice + system + irq + softirq
            total = busy + idle + iowait + steal
            return CpuTimes(busy / hz, steal / hz, total / hz)
    raise ValueError("no aggregate cpu line in /proc/stat text")


def read_cpu_times() -> CpuTimes:
    with open("/proc/stat") as f:
        return parse_proc_stat(f.read(), float(os.sysconf("SC_CLK_TCK")))


def parse_ppid(stat_text: str) -> int:
    """Parent pid from a /proc/<pid>/stat line (the comm field may hold spaces)."""
    return int(stat_text[stat_text.rindex(")") + 2 :].split()[1])


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it in the process tree."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = parse_ppid(f.read())
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_rss_bytes(root: int) -> int:
    """Summed resident set size of ``root`` and its descendants."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in descendants(root):
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, ValueError, IndexError):
            continue
    return total


class RssSampler:
    """Background sampler of the driver's process-tree RSS (the driver plus
    every process of the Ray session it started).  ``window()`` brackets a
    timed pass; ``peak`` is the largest sum seen inside any window."""

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.peak = 0
        self._active = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            if self._active:
                self.peak = max(self.peak, tree_rss_bytes(os.getpid()))

    def start(self) -> "RssSampler":
        self._thread.start()
        return self

    def window(self, active: bool) -> None:
        if active:
            self.peak = max(self.peak, tree_rss_bytes(os.getpid()))
        self._active = active

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def steal_free(wall_s: float, busy_s: float, steal_s: float) -> float:
    """``wall_s`` less the share of it the hypervisor took from this VM.

    The run wanted busy + steal CPU-seconds and got busy of them; its wall is
    scaled by that share, as if the missing steal/(busy + steal) had run.
    On a shared host steal comes in stretches of minutes, and the same work's
    wall moves with it by 20-40%; the steal-free wall moves far less."""
    demand = busy_s + steal_s
    return wall_s * busy_s / demand if demand > 0 else wall_s


class Window:
    """Wall, machine busy CPU and steal over one timed interval."""

    def __enter__(self) -> "Window":
        self.cpu0 = read_cpu_times()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self.t0
        self.cpu = read_cpu_times() - self.cpu0

    @property
    def free_s(self) -> float:
        return steal_free(self.wall_s, self.cpu.busy, self.cpu.steal)


def host_cpus() -> int:
    return len(os.sched_getaffinity(0))
