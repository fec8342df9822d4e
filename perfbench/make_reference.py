"""Regenerate reference.json from the catgate sources of this checkout.

    python3 perfbench/make_reference.py

Runs every invocation of every workload once, requires each output to pass
the reference-free checks, and stores what checks.make_reference keeps.
Invocations marked as a known defect store only their header: fixing them
changes their default axes, so their rows are not fixed.
Run it only when the program's correct output changes on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
from run import CLI_CODE, HERE, OUT_DIR, child_env, spawn
from workloads import WORKLOADS


def main() -> int:
    root = Path.cwd()
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    env = dict(child_env(root / "src"), PERFBENCH_PEAK=str(out / "ref.peak"))
    reference = {}
    for workload in WORKLOADS.values():
        for inv in workload.invocations:
            if inv.key in reference:
                continue
            o = spawn([sys.executable, "-c", CLI_CODE, *inv.argv], env, root,
                      out / "ref.out", out / "ref.err")
            if o.exit_code != 0:
                print(f"{inv.key}: exit {o.exit_code}, no reference stored")
                continue
            table = checks.parse(o.stdout.read_bytes(), checks.output_format(inv.argv))
            problems = checks.check_table(table, inv.argv[0])
            if inv.known_defect:
                reference[inv.key] = {"columns": table.columns}
                print(f"{inv.key}: known defect, header only ({problems})")
                continue
            if problems:
                print(f"{inv.key}: {problems}")
                return 1
            reference[inv.key] = checks.make_reference(table)
            print(f"{inv.key}: {table.rows} rows")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
