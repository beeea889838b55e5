"""One traced CLI invocation, for the traced run of the cli workload.

Times the import of fukaya_flow.cli in this fresh interpreter, installs
the tracer, runs cli.main(argv) with stdout and stderr captured, and
prints one JSON line: {"rc", "stdout", "stderr", "trace"}.  Exit codes
follow `python -m fukaya_flow.cli`: main's return value, argparse's
exit code, or 1 with a traceback on an uncaught exception.

    python3 perfbench/cli_child.py <cli arguments...>
"""

import time

_start = time.perf_counter()
import fukaya_flow.cli as cli  # noqa: E402  (the import is what is timed)
_import_s = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> None:
    tracer = Tracer()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    tracer.begin_op()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(sys.argv[1:])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(
                exc.code is not None)
        except Exception:  # reported the way the interpreter would
            traceback.print_exc()
            rc = 1
    tracer.end_op()
    tracer.add_time("cli.import", _import_s)
    print(json.dumps({"rc": rc, "stdout": out.getvalue(),
                      "stderr": err.getvalue(), "trace": tracer.totals()}))


if __name__ == "__main__":
    main()
