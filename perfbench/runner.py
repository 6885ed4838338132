"""Run one ``frobcy`` command in this interpreter, as the console script does.

    python3 runner.py [--spans FILE] FROBCY_ARG...

Untraced, this is ``sys.exit(frobcy.cli.main(argv))``.  With ``--spans FILE``
the imports of ``frobcy.catalog`` and ``frobcy.cli`` are timed, every layer
function in ``spans.LAYERS`` is wrapped, and the spans are written to FILE
when the command returns.  Nothing is added to stdout, so its bytes are the
command's own.
"""

import sys


def main(argv):
    if argv[:1] != ["--spans"]:
        from frobcy.cli import main as frobcy_main
        return frobcy_main(argv)

    import spans
    recorder = spans.Recorder()
    out, argv = argv[1], argv[2:]
    recorder.timed_import("catalog.import", "frobcy.catalog")
    recorder.timed_import("cli.import", "frobcy.cli")
    recorder.install()
    cli = sys.modules["frobcy.cli"]
    try:
        return cli.main(argv)
    finally:
        recorder.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
