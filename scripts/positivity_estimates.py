#!/usr/bin/env python3
"""The c±(alpha) table: runs `legsums positivity-table` with this script's arguments."""
import sys
from legsums.cli import main
sys.exit(main(["positivity-table", *sys.argv[1:]]))
