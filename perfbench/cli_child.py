"""Traced entry point for one CLI command.

Runs ``sumrank.cli.main`` on the given arguments exactly as
``python -m sumrank.cli`` does, with the tracer installed, and appends
one trace record to stderr.  Standard output is left to the command.

    python3 perfbench/cli_child.py acd-search --p 13 --k 2 --ell 6
"""

import json
import sys
from time import perf_counter

import sumrank.cli

imported = perf_counter()

from tracing import Tracer  # noqa: E402
from workloads import TRACE_MARK  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin_job(0, root="cli.child")
    code = 1
    try:
        code = sumrank.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.end_job()
        tracer.uninstall()
        sys.stdout.flush()
        record = {"imported": imported, "agg": tracer.export()}
        sys.stderr.write("\n" + TRACE_MARK + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
