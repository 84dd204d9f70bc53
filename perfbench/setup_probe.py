"""Set-up cost of one CLI process: import rigclust.cli, parse a config.

    python perfbench/setup_probe.py SRC_DIR [CONFIG]

Exits non-zero when the package was imported from anywhere but SRC_DIR.
"""

import os
import sys

src, *config = sys.argv[1:]

import rigclust.cli  # noqa: E402,F401  (the import is what is measured)

if not os.path.abspath(rigclust.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"rigclust imported from {rigclust.cli.__file__}, not {src}")
if config:
    from rigclust.experiment import build_config, read_config

    build_config(read_config(config[0]))
