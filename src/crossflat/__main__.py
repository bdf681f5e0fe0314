"""Process entry of the CLI: `python -m crossflat` and the `crossflat` script."""

import atexit
import os
import sys
from typing import NoReturn

from .cli import main as cli_main


def main() -> NoReturn:
    """Run the CLI and end the process with its code.

    Once `cli.main` returns, only the shutdown steps that reach outside the
    process run, in the interpreter's own order: non-daemon threads are
    joined (with the exit hooks of `threading`, such as the thread pool's),
    the atexit handlers run, and stdout and stderr are flushed.  Then
    `os._exit` ends the process, skipping the teardown of the heap, which
    nothing outside the process can observe.  Should a flush fail, the
    interpreter's shutdown reports it, as it would without this entry.  An
    exception from `cli.main`, including argparse's SystemExit, unwinds as
    usual; `cli.main` itself returns, for callers that stay in the process.
    """
    code = cli_main()
    threading = sys.modules.get("threading")
    if threading is not None:
        threading._shutdown()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None and not stream.closed:
                stream.flush()
    except (OSError, ValueError):
        raise SystemExit(code) from None
    os._exit(code)


if __name__ == "__main__":
    main()
