"""Traced fleet worker: ``python3 perfbench/worker.py HOST:PORT OUT.json``.

Installs the same outside-in wrappers as the benchmark process, adds
the worker-side dist spans (lease wait, busy time), then serves leases
through :class:`repro.dist.Worker` until drained and writes its spans
to ``OUT.json``.  Untraced fleet runs use ``python -m repro work``.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    from repro import JobSpec, Worker
    from repro.dist import protocol
    from repro.dist.protocol import MessageStream
    import tracing
    from workloads import SCHEDULES

    address, out_path = argv[1], argv[2]
    rec = tracing.Recorder()
    tracing.install(rec, SCHEDULES)

    # Lease wait: from sending a ``request`` to receiving its ``lease``,
    # idle ``wait`` replies included; the final request answered by
    # ``drain`` is not waiting for work and is left out.
    asked = [None]

    def note_request(_result, _args, _kwargs):
        if asked[0] is None:
            asked[0] = perf_counter()

    def note_recv(message, _args, _kwargs):
        kind = message.get("type") if message else None
        if kind == "lease" and asked[0] is not None:
            rec.counts["dist.lease_wait_s"] += perf_counter() - asked[0]
            asked[0] = None
        elif kind == "drain":
            asked[0] = None

    def begin_job(args):
        rec.job = args[0].label

    def end_job(_result, _args, _kwargs):
        rec.job = ""
        rec.counts["core.fsm_cycles"] += sum(
            u.total_fsm_cycles for u in rec.take_units())

    rec.wrap(protocol, "request", "dist.request", "dist", record=False,
             after=note_request)
    rec.wrap(MessageStream, "recv", "dist.recv", "dist", record=False,
             after=note_recv)
    rec.wrap(JobSpec, "execute", "bench.job", "bench", before=begin_job,
             after=end_job)

    start = perf_counter()
    with rec.span("bench.worker", "bench"):
        Worker(address, max_reconnects=0).run()
    rec.counts["dist.worker_s"] += perf_counter() - start
    rec.counts["dist.busy_s"] += sum(
        end - begin for _i, name, _l, begin, end, *_ in rec.spans
        if name == "bench.job")
    rec.uninstall()
    with open(out_path, "w") as fh:
        json.dump(rec.dump(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
