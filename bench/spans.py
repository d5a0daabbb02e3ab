"""Spans, counters and artifact digests for one benchmark run.

A `Recorder` runs the jobs of a workload.  Every call a job makes into the
psdrank package goes through `Recorder.call`; when tracing is on that call
becomes a span (name, layer, start, end, parent, job) kept in memory.  The
layer is the psdrank module the called function lives in.  Jobs also report
counts (`count`) and the artifacts they serialize (`artifact`), whose sha256
is checked against the digests recorded at the seed commit.
"""

from __future__ import annotations

import hashlib
import signal
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple


class JobFailure(Exception):
    """A job's output missed its known answer or its recorded digest."""


class JobTimeout(BaseException):
    """Raised from SIGALRM when a job runs past its time limit.

    It derives from BaseException so that no ``except Exception`` inside the
    package can swallow it."""


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    job: str


def _on_alarm(signum, frame):
    raise JobTimeout()


def _layer_of(fn: Callable) -> str:
    return fn.__module__.rpartition(".")[2]


class Recorder:
    """Runs jobs; records spans (when tracing), counts, bytes and failures.

    ``digests`` maps pinned artifact names to their sha256 at the seed
    commit.
    """

    def __init__(self, digests: Dict[str, str], tracing: bool = False):
        self.digests = digests
        self.tracing = tracing
        self.spans: List[Span] = []
        self.counts: Counter = Counter()  # (job, metric) -> count
        self.output_bytes = 0
        self.attempted = 0
        self.failures: List[str] = []
        self._unpinned: Dict[str, str] = {}
        self._open: List[int] = []
        self._job = ""

    # -- inside a job -----------------------------------------------------

    def call(self, fn: Callable, *args, **kwargs):
        """Call ``fn``; with tracing on, record it as a span of the job."""
        if not self.tracing:
            return fn(*args, **kwargs)
        index = self._open_span(fn.__name__, _layer_of(fn))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close_span(index)

    def count(self, metric: str, n) -> None:
        self.counts[(self._job, metric)] += n

    def artifact(self, name: str, text: str, pinned: bool = True) -> bytes:
        """Account for one serialized artifact and check its digest.

        A pinned artifact must match the digest recorded at the seed commit.
        An unpinned one (its input depends on the seed) must match itself
        across the passes of a run."""
        data = text.encode("utf-8")
        self.output_bytes += len(data)
        digest = hashlib.sha256(data).hexdigest()
        if not pinned:
            expected = self._unpinned.setdefault(name, digest)
        else:
            expected = self.digests.get(name)
            if expected is None:
                raise JobFailure(f"no recorded digest for artifact {name!r}")
        if digest != expected:
            raise JobFailure(f"artifact {name!r} has sha256 {digest[:16]}..., "
                             f"expected {expected[:16]}...")
        return data

    # -- around jobs ------------------------------------------------------

    def run_job(self, job_id: str, job: Callable[["Recorder"], None],
                time_limit: float) -> bool:
        """Run one job; a raise, a time-out or a missed answer is a failure."""
        self.attempted += 1
        self._job = job_id
        index = self._open_span(job_id, "job") if self.tracing else None
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(time_limit, 0.001))
        try:
            job(self)
            return True
        except JobTimeout:
            reason = f"timed out after {time_limit:.0f} s"
        except JobFailure as e:
            reason = str(e)
        except Exception as e:  # a crash in the package is a failed job, not a stop
            reason = "".join(traceback.format_exception_only(type(e), e)).strip()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            while self._open and (index is None or self._open[-1] >= index):
                self._close_span(self._open[-1])
        self.failures.append(f"{job_id}: {reason}")
        return False

    def end_pass(self) -> Tuple[List[Span], Counter, int]:
        """Hand over the spans, counts and output bytes of the pass just run."""
        out = (self.spans, self.counts, self.output_bytes)
        self.spans, self.counts, self.output_bytes = [], Counter(), 0
        return out

    def _open_span(self, name: str, layer: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, self._job))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close_span(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.remove(index)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def span_dicts(spans: List[Span]) -> List[dict]:
    """Spans as JSON-ready dicts; ``id`` and ``parent`` index the list."""
    return [dict(asdict(s), id=i) for i, s in enumerate(spans)]
