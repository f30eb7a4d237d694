"""``python -m repro`` dispatches to the command-line interface.

This is the CLI's one process entry point.  Once :func:`repro.cli.main`
returns, every report, cache and trace writer has closed its file, so
the process flushes stdout and stderr and ends with ``os._exit``: the
interpreter does not spend tens of milliseconds finalizing a heap the
operating system is about to drop.  An exception, or a ``SystemExit``
such as an argparse error, still takes the normal exit path, and so
does a run under a profiler, tracer or debugger (``python -m cProfile
-m repro ...``), which reports at interpreter exit.  In-process callers
of ``main`` are unaffected.
"""

import os
import sys

from repro.cli import main

if __name__ == "__main__":
    code = main()
    if sys.getprofile() is not None or sys.gettrace() is not None:
        sys.exit(code)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
