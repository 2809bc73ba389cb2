"""Traced stand-in for `python -m stalab.cli ARGV...`.

Times ``import stalab.cli`` (cli.import) and ``cli.main(ARGV)`` (cli.main)
with the stalab layers wrapped in between, leaves stdout exactly as the
CLI writes it, and reports the spans as the last line of stderr.
"""

import json
import sys

import tracing

tracer = tracing.Tracer()
with tracer.span("cli.import"):
    import stalab.cli
tracer.install()
try:
    with tracer.span("cli.main"):
        code = stalab.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
sys.stdout.flush()
sys.stderr.write("\n" + tracing.CHILD_MARKER + json.dumps(tracer.export())
                 + "\n")
sys.exit(code)
