#!/usr/bin/env python3
"""The density table: runs `legsums density-table` with this script's arguments."""
import sys
from legsums.cli import main
sys.exit(main(["density-table", *sys.argv[1:]]))
