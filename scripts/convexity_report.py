#!/usr/bin/env python3
"""Sample the normalized Bregman divergence across Carleman exponents.

Usage: python3 scripts/convexity_report.py [--lambdas 0,1,2,4,8] [--pairs 100]
Writes the minimum per lambda and lambda_emp, the largest nonnegative one.
"""

import sys

from convexiwave.cli import main as cli_main

if __name__ == "__main__":
    sys.exit(cli_main(["convexity-check", *sys.argv[1:]]))
