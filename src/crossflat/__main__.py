"""Process entry of the CLI: `python -m crossflat` and the `crossflat` script."""

import gc
from typing import NoReturn

from .cli import main as cli_main


def main() -> NoReturn:
    """Run the CLI and exit the process with its code.

    The heap is frozen first, so that the interpreter's final collections
    skip the objects every run leaves behind (about 22,000 once numpy is
    loaded); shutdown is otherwise unchanged. `cli.main` leaves the garbage
    collector alone, for callers that stay in the process.
    """
    code = cli_main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
