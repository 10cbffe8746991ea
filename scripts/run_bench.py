#!/usr/bin/env python3
"""Print the size/operation-count comparison for both delivery modes; the
same as ``assured bench`` (``--seed``, ``--records``)."""

import sys

from assured.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
