"""Record the final certified gap bound of every gated run, per workload and
seed, into ``reference.json``:

    python3 perfbench/record_reference.py --seeds 0-49

``workloads.gate`` fails a run whose final gap bound drifts from its
recorded value, so a change that moves results shows up as a benchmark
failure.  Record at a commit whose results are accepted; a change that moves
results on purpose records again and says so in CHANGES.md.
"""

import argparse
import json
import sys
import tempfile

import run as bench


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-49", help="inclusive range, e.g. 0-49")
    args = p.parse_args(argv)
    error = bench.bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from tracing import Layers
    from workloads import WORKLOADS, gate

    first, last = (int(x) for x in args.seeds.split("-"))
    recorded = {}
    for workload, (inputs, build) in WORKLOADS.items():
        recorded[workload] = {}
        for seed in range(first, last + 1):
            with tempfile.TemporaryDirectory(dir=bench.HERE, prefix=".work-") as workdir:
                jobs = build(inputs(seed), Layers(), workdir, False, seed)
                outcomes = bench.run_pass(jobs, Layers())
            finals = {}
            for outcome in outcomes:
                for label, passed in outcome.checks:
                    if not passed:
                        raise SystemExit(f"{workload} seed {seed}: check failed: {label}")
                for r in outcome.runs:
                    bad = gate(r, {})
                    if bad:
                        raise SystemExit(f"{workload} seed {seed} {r.name}: {'; '.join(bad)}")
                    finals[r.name] = r.view.gap_bound[-1]
            recorded[workload][str(seed)] = finals
            print(workload, seed, len(finals), flush=True)
    with open(bench.HERE / "reference.json", "w") as fh:
        json.dump({"commit": bench.provenance_commit(), "final_gap_bound": recorded}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
