"""One benchmark job in a fresh interpreter.

    python child.py RESULT_JSON TRACE ARRAY_SHARE -- <extropy CLI arguments>

Set-up is the CPU time of this process at the end of ``import extropy.cli``
(interpreter start plus import), and compute the CPU time of
``extropy.cli.main``.  The job's own stdout and stderr go wherever the parent
sent them; the timings go to RESULT_JSON.

The shared host switches, many times a second, between a fast state and one
in which the same code takes up to twice the CPU time, and the share of time
in the slow state drifts over minutes.  So a probe samples the host speed
all through the job: on every SIGPROF tick (each ``PROBE_EVERY_S`` of CPU
time) it times an interpreter-bound kernel, and on every ``ARRAY_EVERY``-th
tick an array-bound one (only for workloads with a nonzero ARRAY_SHARE,
since its buffers add to the job's peak RSS).  A sample's speed is the
kernel's reference time over its measured time.  The job's speed is the mean over its samples, with
the array kernel weighted by ARRAY_SHARE, the share of the workload's
compute that streams over arrays larger than the cache: the slow state costs
interpreted code more than array code.  Times "at reference speed" are CPU
time less the probe's own, times that speed.  The reference times are those
of the kernels in the fast state of the Intel Xeon host the benchmark was
written on, so these times compare between runs, not with a stopwatch.
"""

import json
import resource
import signal
import sys
import time

import numpy as np

PROBE_EVERY_S = 0.05
ARRAY_EVERY = 8
INTERPRETED_REFERENCE_S = 0.5e-3
ARRAY_REFERENCE_S = 1.85e-3

_GRID = np.linspace(-3.0, 3.0, 512)
_buffers: list[np.ndarray] = []  # three arrays of 400,000, past the L2 cache
_interpreted: list[float] = []  # kernel times, in order
_array: list[float] = []


def _interpreted_kernel() -> float:
    """Small numpy calls and interpreted arithmetic, as in the quadrature."""
    s = 0.0
    for k in range(60):
        s += float(np.exp(-0.5 * (_GRID - 0.01 * k) ** 2).sum())
        s += sum(i * 0.5 for i in range(40))
    return s


def _array_kernel() -> float:
    """A Gaussian-derivative sum over preallocated arrays, as in the SJ sums."""
    u, b, c = _buffers
    np.multiply(u, u, out=b)
    np.multiply(b, -0.5, out=c)
    np.exp(c, out=c)
    np.subtract(b, 3.0, out=b)
    np.multiply(b, c, out=b)
    return float(b.sum())


def _sample(signum, frame) -> None:
    # thread time: with a CPU timer armed, process time advances only per tick
    start = time.thread_time()
    _interpreted_kernel()
    _interpreted.append(time.thread_time() - start)
    if _buffers and len(_interpreted) % ARRAY_EVERY == 0:
        start = time.thread_time()
        _array_kernel()
        _array.append(time.thread_time() - start)


def _speed(samples: list[float], reference_s: float) -> float:
    return sum(reference_s / s for s in samples) / len(samples)


def main() -> None:
    result_path, trace, array_share = sys.argv[1], sys.argv[2] == "1", float(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1 :]
    if array_share > 0.0:
        u = np.linspace(-3.0, 3.0, 400_000)
        _buffers.extend((u, np.empty_like(u), np.empty_like(u)))

    signal.signal(signal.SIGPROF, _sample)
    signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    import extropy.cli

    setup_s = time.process_time()
    setup_probes = len(_interpreted), len(_array)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    start = time.process_time()
    code = extropy.cli.main(argv)
    compute_s = time.process_time() - start
    signal.setitimer(signal.ITIMER_PROF, 0.0)

    # a job too short for a tick of its own takes the speed sampled during import
    interpreted = _interpreted[setup_probes[0] :] or _interpreted
    array = _array[setup_probes[1] :]
    speed = _speed(interpreted, INTERPRETED_REFERENCE_S)
    if array:
        speed = (1.0 - array_share) * speed + array_share * _speed(array, ARRAY_REFERENCE_S)
    probe_s = sum(_interpreted) + sum(_array)
    setup_s -= sum(_interpreted[: setup_probes[0]]) + sum(_array[: setup_probes[1]])
    compute_s -= sum(_interpreted[setup_probes[0] :]) + sum(_array[setup_probes[1] :])
    # import is interpreted code, so set-up is scaled by the interpreted kernel alone
    setup_speed = _speed(_interpreted[: setup_probes[0]] or interpreted, INTERPRETED_REFERENCE_S)
    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "compute_s": compute_s,
        "setup_ref_s": setup_s * setup_speed,
        "compute_ref_s": compute_s * speed,
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.snapshot()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
