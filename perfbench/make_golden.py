#!/usr/bin/env python3
"""Write golden.json: the sha256 of each workload's NPI and summary CSVs for
the packaged scenarios' own seed (7) and one held-out seed.

Run it from the repository root only when simulated behaviour changes on
purpose, and say why in CHANGES.md:

    python3 perfbench/make_golden.py
"""

import json
import os

import run
import workloads

SEEDS = (7, 1017)  # 1017 is held out: check gain claims on it afterwards


def main() -> None:
    golden = {}
    for name in workloads.WORKLOADS:
        golden[name] = {}
        for seed in SEEDS:
            session = run.Session(name, seed, None)
            res = session.run_one()
            if res is None:
                raise SystemExit(f"{name} seed {seed}: {session.failures}")
            golden[name][str(seed)] = res["digests"]
            print(name, seed, res["digests"], f"{res['wall_s']:.2f} s")
    path = os.path.join(run.HERE, "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
