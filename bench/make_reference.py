"""Regenerate bench/reference.json: default-seed outputs of every workload.

    python3 bench/make_reference.py

Run it only when a change is meant to alter simulated outputs, and say so
in the change; a speed-up must pass against the existing reference.
"""

from __future__ import annotations

import json
import re
import sys

import check
import workloads
from run import REFERENCE, Run, import_program


def main() -> int:
    hg = import_program()
    reference = {}
    for name in workloads.WORKLOADS:
        spec = workloads.generate(name, workloads.DEFAULT_SEED)
        run = Run(spec, workloads.build(spec, hg))
        if not run.round():
            print(f"{name}: {run.problems}", file=sys.stderr)
            return 1
        reference[name] = check.reference_entry(spec, run.first)
        print(f"{name}: {json.dumps(reference[name]['stats'])}")
    text = json.dumps(reference, indent=1)
    # one transition per line: collapse the innermost [time, value, depth] lists
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    REFERENCE.write_text(text + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
