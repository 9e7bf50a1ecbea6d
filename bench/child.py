"""One measuring process: ``python3 -m bench.child SPEC REPORT``.

The parent (:mod:`bench.run`) starts several of these per workload, one
after another, each in a fresh interpreter, and passes a JSON *SPEC*:
``workload``, ``seed`` and ``trace`` (0/1).  The child starts its
:class:`~bench.hostspeed.SpeedProbe`, sets the workload up, runs one
pass over its cells, and writes a JSON report to the path *REPORT*.
All times are in reference seconds (see :mod:`bench.hostspeed`).
Set-up time is the main thread's CPU time when the pass starts:
interpreter start, ``import repro`` (deferred until the probe runs) and
trace generation.

With ``trace`` 1 the child runs an untraced pass, a traced pass and a
second untraced pass, all regenerating their traces, so they measure
the same work; the traced time over the mean untraced time is the
tracing overhead, with the process warm-up split between both sides.
"""

import json
import resource
import sys
import time

from bench.hostspeed import SpeedProbe
from bench.tracer import LayerTracer, calibrate


def measure(spec, probe):
    from bench.workloads import WORKLOADS, Observations, paper_bands

    workload = WORKLOADS[spec["workload"]]()
    workload.setup(spec["seed"])
    setup_s = probe.scale(time.thread_time(), 0)
    observations = Observations()
    traced = []
    trace = None
    if spec["trace"]:
        inner_ns, outer_ns = calibrate()
        tracer = LayerTracer(inner_ns=inner_ns, outer_ns=outer_ns)
        untraced = [workload.run_pass(observations, "untraced", probe, regenerate=True)]
        traced.append(
            workload.run_pass(observations, "traced", probe, tracer=tracer, regenerate=True)
        )
        untraced.append(workload.run_pass(observations, "untraced", probe, regenerate=True))
        trace = tracer.summary()
    else:
        untraced = [workload.run_pass(observations, "untraced", probe)]
    return dict(
        setup_s=setup_s,
        untraced=untraced,
        traced=traced,
        trace=trace,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        host_speed=probe.speed(),
        paper=paper_bands(spec["workload"]),
        **observations.as_dict(),
    )


def main(argv):
    spec = json.loads(argv[0])
    probe = SpeedProbe().start()
    try:
        report = measure(spec, probe)
    finally:
        probe.stop()
    with open(argv[1], "w") as stream:
        json.dump(report, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
