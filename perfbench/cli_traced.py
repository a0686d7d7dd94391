"""Run one CLI command under the benchmark's tracer.

Usage: python cli_traced.py <fd> <cli arguments...>

The command's stdout, stderr and exit code are those of
``python -m causal_imitation.cli <cli arguments...>``.  The aggregated spans
go to file descriptor <fd> as one JSON object, so they never mix with the
command's own output.
"""
import json
import os
import sys

from tracing import Tracer


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import causal_imitation.cli as cli
    bound = tracer.install()
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    stats = {name: [st.calls, st.total, st.self_time, st.yielded] for name, st in tracer.stats.items()}
    with os.fdopen(fd, "w") as pipe:
        json.dump({"stats": stats, "counters": tracer.counters, "bound": bound}, pipe)
    return code


if __name__ == "__main__":
    sys.exit(main())
