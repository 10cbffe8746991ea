#!/usr/bin/env python3
"""Run the full adversary matrix and print the detection table; the same as
``assured adversary-suite`` (``--seed``, ``--records``)."""

import sys

from assured.cli import main

if __name__ == "__main__":
    sys.exit(main(["adversary-suite", *sys.argv[1:]]))
