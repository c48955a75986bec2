"""Set-up time of a fresh interpreter: import boxagree, build the default
eta table and parse the generated inputs.

Run by run.py as `python3 setup_probe.py <src dir>` with the inputs on
stdin, separated by RECORD_SEPARATOR; prints the elapsed seconds.  Reading
stdin happens before the clock starts.
"""

import sys
import time

RECORD_SEPARATOR = "\x1e"


def main() -> None:
    data = sys.stdin.read()
    texts = data.split(RECORD_SEPARATOR) if data else []
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import boxagree
    from boxagree import cli, formats  # noqa: F401  (cli pulls in every layer)

    boxagree.default_eta_table()
    for text in texts:
        formats.parse_any(text)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
