"""Run one ``nonmarkov`` CLI job under the span tracer.

    python perfbench/trace_job.py SPANS_JSON JOB_ID CLI_ARG...

The CLI arguments are those of ``python -m nonmarkov.cli``.  The spans are
written to SPANS_JSON when the CLI returns; the exit code is the CLI's.
"""

import sys

from tracer import Tracer, install


def main() -> int:
    spans_path, job = sys.argv[1], sys.argv[2]
    tracer = Tracer(job)
    install(tracer)
    import nonmarkov.cli

    try:
        return nonmarkov.cli.main(sys.argv[3:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
