#!/usr/bin/env python3
"""Run one scenario under every scheduling policy and print a side-by-side
health/bandwidth table.

Usage:
    python scripts/compare_policies.py [--case A|B|sweep] [--out DIR]
"""

import argparse
from importlib import resources

from sarasim.cli import main as sarasim_main
from sarasim.controller import POLICIES


def scenario_path(case: str) -> str:
    return str(resources.files("sarasim.scenarios") / f"case_{case.lower()}.cfg")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", default="A", choices=["A", "B", "sweep"])
    parser.add_argument("--out", default="out/compare")
    parser.add_argument("--policies", default=",".join(POLICIES))
    args = parser.parse_args()
    return sarasim_main(["compare", "-c", scenario_path(args.case),
                         "--policies", args.policies, "-o", args.out])


if __name__ == "__main__":
    raise SystemExit(main())
