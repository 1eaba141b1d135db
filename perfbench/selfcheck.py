#!/usr/bin/env python3
"""Fast self-check of the benchmark on shortened simulations.

Run from the repository root; it exits 1 and names the first broken check:

    python3 perfbench/selfcheck.py

For every workload it checks that
  * an untraced and a traced run print every metric by name with its unit,
    and report exactly the metrics BENCHMARK.json declares, with its units;
  * layer_map.json names the end-to-end metric and workloads of every
    per-layer metric;
  * the digest check passes on the digests a run produced and fails the
    run when one digest is corrupted;
  * per-layer self times sum to the traced wall time within the measured
    tracing overhead.
"""

import contextlib
import io
import json
import os
import sys

import run
import workloads

CYCLES = 15000  # warmup (12000) plus 3000 measured cycles
SEED = 7


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def quiet_run(workload: str, trace: bool, golden: dict) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        result = run.run_workload(workload, SEED, 0.5, trace, golden, CYCLES)
    return result, out.getvalue()


def check_printed(workload: str, trace: bool, spec: dict) -> None:
    """Every metric of `spec` is in the JSON line with its unit, and every
    one, plus the undeclared end-to-end metrics, is printed with its unit."""
    result, text = quiet_run(workload, trace, {})
    expect(result["correct"], f"{workload}: short run not correct")
    expect({k: m["unit"] for k, m in result["metrics"].items()} == spec,
           f"{workload}: JSON metrics or units differ from BENCHMARK.json")
    printed = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 or (len(parts) > 3 and parts[3] == "->"):
            printed[parts[0]] = parts[2]
    expected = spec if trace else {**spec, **run.UNDECLARED_UNITS}
    for name, unit in expected.items():
        expect(printed.get(name) == unit,
               f"{workload}: {name} printed as {printed.get(name)!r}, "
               f"expected unit {unit!r}")


def check_digests(workload: str) -> None:
    session = run.Session(workload, SEED, None, CYCLES)
    res = session.run_one()
    expect(res is not None, f"{workload}: short run failed")
    good = {workload: {str(SEED): res["digests"]}}
    result, _ = quiet_run(workload, False, good)
    expect(result["correct"] and result["failed"] == 0,
           f"{workload}: the run's own digests were rejected")
    for key in ("npi", "summary"):
        bad = json.loads(json.dumps(good))
        digest = bad[workload][str(SEED)][key]
        bad[workload][str(SEED)][key] = digest[:-1] + (
            "0" if digest[-1] != "0" else "1")
        try:
            result, _ = quiet_run(workload, False, bad)
        except run.RunFailed:
            continue  # every simulation failed: the command exits 1
        expect(not result["correct"],
               f"{workload}: a corrupted {key} digest was not caught")


def check_self_time_sum(workload: str) -> None:
    session = run.Session(workload, SEED, None, CYCLES)
    with contextlib.redirect_stdout(io.StringIO()):
        measured = run.measure_per_layer(session, 0.5)
    m = measured["metrics"]
    overhead = m["trace.wall_s"] - min(measured["walls"])
    unattributed = m["trace.unattributed_s"]
    expect(0.0 <= unattributed <= overhead,
           f"{workload}: traced wall {m['trace.wall_s']:.4f} s minus the "
           f"self times ({unattributed:.4f} s) is outside the tracing "
           f"overhead {overhead:.4f} s")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    layer_map = run.load_layer_map()
    try:
        expect(set(layer_map) == set(layers),
               "layer_map.json and BENCHMARK.json per_layer differ")
        for name, entry in layer_map.items():
            expect(entry["moves"] and set(entry["on"]) <= set(
                workloads.WORKLOADS), f"layer_map.json: bad entry {name}")
        for workload in workloads.WORKLOADS:
            check_printed(workload, False, e2e)
            check_printed(workload, True, layers)
            check_digests(workload)
            check_self_time_sum(workload)
            print(f"{workload}: ok")
    except (CheckFailed, run.RunFailed) as exc:
        print(f"selfcheck FAILED: {exc}", file=sys.stderr)
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
