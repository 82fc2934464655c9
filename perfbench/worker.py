"""The workload process: imports calabi once, then runs CLI jobs on request.

Started by ``run.py`` as ``python3 perfbench/worker.py ROOT LOG [--probe]``
with ROOT the checkout whose ``src/calabi`` is measured.  The first reply
line carries the seconds taken to import ``calabi`` and ``calabi.cli``;
with ``--probe`` the process exits after it.

Otherwise it reads one JSON request per line on stdin and answers one JSON
line on stdout.  Requests:

- ``{"op": "job", "job": k, "argvs": [[...], ...]}`` runs
  ``calabi.cli.main(argv)`` for each argv in turn and replies with the exit
  codes, the wall and CPU seconds of the whole job, and the bytes the
  process read and wrote meanwhile (``rchar``/``wchar`` of /proc/self/io).
- ``{"op": "trace"}`` installs the span tracer on calabi.
- ``{"op": "finish", "metrics": [...], "spans": PATH}`` replies with the
  process's peak RSS and, when tracing, the per-layer totals of the named
  metrics; the spans are written to PATH.

The jobs' own stdout and stderr are appended to LOG.
"""

import sys
import time

# The timed import runs before any other module is loaded, so that it costs
# what a fresh ``calabi`` command pays.
ROOT = sys.argv[1]
sys.path.insert(0, ROOT + "/src")
_start = time.perf_counter()
import calabi  # noqa: E402
import calabi.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_totals  # noqa: E402


def io_counters() -> tuple[int, int]:
    """Bytes this process has read and written through system calls."""
    fields = dict(line.split(": ") for line in Path("/proc/self/io").read_text().splitlines())
    return int(fields["rchar"]), int(fields["wchar"])


def run_job(argvs: list[list[str]], log) -> dict:
    exits = []
    read0, written0 = io_counters()
    cpu0 = os.times()
    start = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for argv in argvs:
            try:
                exits.append(calabi.cli.main(argv))
            except SystemExit as exc:
                exits.append(exc.code if isinstance(exc.code, int) else 1)
            except Exception:
                traceback.print_exc(file=log)
                exits.append(-1)
    wall = time.perf_counter() - start
    cpu1 = os.times()
    read1, written1 = io_counters()
    return {
        "exits": exits,
        "wall_s": wall,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "bytes_in": read1 - read0,
        "bytes_out": written1 - written0,
    }


def write_spans(path: str, spans) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for span in spans:
            fh.write(json.dumps(list(span)) + "\n")


def main() -> int:
    reply = sys.stdout
    source = Path(calabi.__file__).resolve()
    if Path(ROOT, "src").resolve() not in source.parents:
        print(f"calabi was imported from {source}, not from {ROOT}/src", file=sys.stderr)
        return 2
    print(json.dumps({"setup_s": SETUP_S}), file=reply, flush=True)
    if "--probe" in sys.argv:
        return 0
    tracer = None
    traced_jobs = 0
    with open(sys.argv[2], "a") as log:
        for line in sys.stdin:
            request = json.loads(line)
            if request["op"] == "job":
                if tracer is not None:
                    tracer.job = request["job"]
                    traced_jobs += 1
                answer = run_job(request["argvs"], log)
                log.flush()
            elif request["op"] == "trace":
                tracer = Tracer()
                tracer.install(calabi)
                answer = {"ok": True}
            elif request["op"] == "finish":
                answer = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
                if tracer is not None:
                    tracer.uninstall()
                    spans = tracer.finished_spans()
                    totals = layer_totals(spans, request["metrics"])
                    answer["layers"] = {name: value / traced_jobs for name, value in totals.items()}
                    answer["spans"] = len(spans)
                    write_spans(request["spans"], spans)
            else:
                raise ValueError(f"unknown request {request!r}")
            print(json.dumps(answer), file=reply, flush=True)
            if request["op"] == "finish":
                return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
