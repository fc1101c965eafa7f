"""Run ``python -m mase.cli`` under the perfbench tracer and export the trace.

Usage: cli_boot.py EXPORT PARENT_SPAN OP_ID -- ARGS...

The traced stand-in for the ``cli-cold`` subprocesses: the import of
``mase.cli`` becomes a ``cli.import`` span, the command a ``cli.main`` span,
and both hang under the parent's operation span ``PARENT_SPAN``.  The exit
code is the one ``mase.cli.main`` gives.
"""

import sys

from tracer import Tracer


def main() -> int:
    export, parent, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tr = Tracer(remote_parent=parent, op=int(op))
    with tr.span("cli.import"):
        import mase.cli
    tr.install()
    try:
        with tr.span("cli.main"):
            try:
                rc = mase.cli.main(argv)
            except SystemExit as exc:  # argparse exits for --version
                code = exc.code
                rc = code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        tr.uninstall()
        tr.export(export)
    return rc


if __name__ == "__main__":
    sys.exit(main())
