"""Run the crossflat CLI with every layer traced.

    python perfbench/traced_cli.py --spans <file> <crossflat CLI arguments>

Takes the same arguments as `python -m crossflat`, writes the same outputs,
exits with the same code, and also writes the spans to <file> at exit.
"""

from __future__ import annotations

import sys

from tracing import Tracer, cache_stats, install


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_cli.py --spans <file> <crossflat CLI arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    from crossflat import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path, {"cache": cache_stats()})


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
