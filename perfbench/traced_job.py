"""Run one qcompact CLI job in this process with tracing on.

Usage: python traced_job.py SPANS_FILE JOB_ID -- <qcompact CLI arguments>

The root span ``trace.job`` covers the import of ``qcompact.cli`` (span
``cli.import``), the wrapping of its public functions, and the call to
``qcompact.cli.main``.  The spans are written to SPANS_FILE as JSON once the
job is done; the exit code is the CLI's.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_file, job_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(job_id)
    root = tracer.open("trace.job")
    root[3] = _T0
    rec = tracer.open("cli.import")
    import qcompact.cli

    tracer.close(rec)
    tracer.install()
    code = qcompact.cli.main(argv)
    tracer.close(root)
    with open(spans_file, "w") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
