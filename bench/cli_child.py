"""Traced stand-in for ``python -m eqdesign.cli``.

Usage: ``python3 bench/cli_child.py SPANS_FILE <eqdesign arguments>``.  Runs
the same ``main`` with the layer wrappers of ``spans.py`` installed, then
writes the recorded spans to SPANS_FILE; the parent adopts them under its
``cli`` span.
"""

import sys

import spans


def main() -> None:
    spans_path = sys.argv[1]
    sys.argv = ["eqdesign"] + sys.argv[2:]
    import eqdesign.cli

    tracer = spans.Tracer()
    try:
        with tracer.activate(0):
            eqdesign.cli.main()
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
