"""Run one `qbdr` CLI job in this process and write its timing record.

Usage::

    python3 job.py RECORD_PATH JOB_ID TRACE -- <qbdr arguments>

The record (JSON) holds the monotonic time at which ``import qbdr.cli``
finished, the wall and CPU time of ``qbdr.cli.main`` from there to the last
CSV row written, the peak resident set size and the exit code, and the
times of a fixed calibration kernel run just before, during and just after
that span (see ``HostSpeed``; the time of the samples taken during the span
is taken out of its times): ``run.py`` divides them out to report job
times at a reference host speed.  With
TRACE=1 the public functions of each ``qbdr`` module are wrapped from
outside the program first (see ``tracer.py``) and the record also holds the
spans and per-function counters.

The caller sets the BLAS thread variables before this process starts, so
numpy loads with them.
"""

import json
import resource
import signal
import sys
import time
import traceback


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class HostSpeed:
    """Samples the host's speed with a fixed calibration kernel: a mix of
    interpreter work, small-array numpy calls and a dense solve, the kinds
    of work a job does.

    ``bracket`` runs it outside the timed span; while the span runs, a
    timer signal runs it every ``INTERVAL_S``, and the time those samples
    take is kept so that it can be taken out of the span's times.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        import numpy as np
        self.a = np.eye(48) * 4.0 + np.arange(48 * 48).reshape(48, 48) / 4608.0
        self.small = self.a[:4, :4]
        self.solve = np.linalg.solve
        self.samples = []
        self.paused_wall = self.paused_cpu = 0.0
        self.kernel()  # warm-up
        self.samples.clear()

    def kernel(self):
        start = time.perf_counter()
        for _ in range(20):
            self.solve(self.a, self.a[:, :6])
            for _ in range(20):
                self.small @ self.small
            total = 0
            for i in range(1000):
                total += i
        self.samples.append(time.perf_counter() - start)

    def bracket(self):
        for _ in range(5):
            self.kernel()

    def _on_timer(self, *_):
        wall, cpu = time.monotonic(), _cpu_seconds()
        self.kernel()
        self.paused_wall += time.monotonic() - wall
        self.paused_cpu += _cpu_seconds() - cpu

    def start(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def main():
    record_path, job_id, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    import qbdr.cli
    ready = time.monotonic()
    speed = HostSpeed()
    speed.bracket()
    tracer = None
    if trace:  # no samples inside traced spans
        from tracer import Tracer
        tracer = Tracer(job_id)
        tracer.install()
    else:
        speed.start()
    start, cpu_start = time.monotonic(), _cpu_seconds()
    try:
        if tracer is None:
            code = qbdr.cli.main(argv)
        else:
            code = tracer.call_root("cli.main", qbdr.cli.main, argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported as a failed job, not a failed benchmark
        traceback.print_exc()
        code = 1
    finally:
        speed.stop()
    wall = time.monotonic() - start - speed.paused_wall
    cpu = _cpu_seconds() - cpu_start - speed.paused_cpu
    speed.bracket()
    record = {
        "ready": ready, "wall_s": wall, "cpu_s": cpu, "exit_code": code,
        "calib": speed.samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.export()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
