"""Run one ramgenus CLI request with spans around the library's public
functions, then write the spans as JSON.

    python bench/cli_child.py SPANS_FILE COMMAND [ARGS...]

This is the traced stand-in for ``python -m ramgenus.cli COMMAND [ARGS...]``:
same arguments, same output and exit status.
"""

import sys
from pathlib import Path

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import ramgenus.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.active = True
    try:
        return ramgenus.cli.main(argv)
    finally:
        tracer.active = False
        Path(out_path).write_text(tracer.spans.to_json())


if __name__ == "__main__":
    sys.exit(main())
