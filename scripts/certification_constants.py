#!/usr/bin/env python3
"""The certification chain: runs `legsums certification-chain` with this script's arguments."""
import sys
from legsums.cli import main
sys.exit(main(["certification-chain", *sys.argv[1:]]))
