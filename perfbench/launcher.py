"""Child process of a traced cli-cold operation.

    python3 perfbench/launcher.py TRACE_OUT -- <hessianls cli arguments>

Times ``import hessianls`` from a cold interpreter, installs the tracing
wrappers, runs ``hessianls.cli.main`` on the arguments and writes the
import time, spans and counters to TRACE_OUT as JSON.  Exits with the
CLI's exit code.  ``src`` of the current directory must hold the package.
"""

import os
import sys
import time


def main() -> int:
    trace_out = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: launcher.py TRACE_OUT -- ARGS...")
    cli_args = sys.argv[3:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    start = time.perf_counter()
    import hessianls.cli
    import_s = time.perf_counter() - start

    import json

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    token = tracer.begin()
    try:
        code = hessianls.cli.main(cli_args)
    finally:
        tracer.end("launcher.run", token)
        tracer.uninstall()
        payload = tracer.export()
        payload["import_s"] = import_s
        with open(trace_out, "w") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
