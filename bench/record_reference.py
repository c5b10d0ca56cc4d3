"""Record the reference outputs of every point of the default seed.

    python3 bench/record_reference.py

Writes bench/reference/seed<DEFAULT_SEED>.json. Re-record only in a change
that is meant to alter the program's numbers, and say why in that change.
"""

import json
import sys

import run

if __name__ == "__main__":
    run._import_program()
    import checks
    import workloads

    seed = workloads.DEFAULT_SEED
    refs = {}
    for name in workloads.WORKLOADS:
        refs[name] = []
        for p in map(workloads.prepare, workloads.points(name, seed)):
            rec = workloads.record(p, workloads.evaluate(p))
            errors = checks.invariant_errors(p, rec)
            if errors:
                sys.exit(f"{name} point {p} fails its invariants: {errors}")
            refs[name].append(rec)
        print(f"{name}: {len(refs[name])} points", flush=True)
    path = checks.reference_path(seed)
    path.write_text(json.dumps(refs) + "\n")
    print(f"wrote {path}")
