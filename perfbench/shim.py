"""Run the `robinsonblocks` CLI with spans around its public functions.

    python3 perfbench/shim.py SPANS.json <robinsonblocks arguments...>

Behaves like the `robinsonblocks` entry point (same stdout, stderr and
exit code) and writes the span table to SPANS.json on the way out.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    from robinsonblocks import cli

    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracing.dump(tracer, spans_path)


if __name__ == "__main__":
    sys.exit(main())
