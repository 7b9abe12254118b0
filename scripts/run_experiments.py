#!/usr/bin/env python3
"""Run the desk-scale experiment battery behind criteria 5-8 of tests/test_acceptance.py.

    python scripts/run_experiments.py [--only GROUP]

``cure_rl.battery`` defines the battery: its runs, seeds, configs and the
layout of results/. Before any job, the script runs the whole battery at a
tiny scale in a temporary directory and reads every criterion's numbers from
it; it starts no job unless that passes. Each job is one ``train`` call into
its own directory under results/. Re-run after an interruption, the script
skips complete runs and resumes the others from their checkpoints; the
visitation scoring is redone after its two runs. Expect a few hours on one core.
"""

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cure_rl import battery


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--only", choices=battery.GROUPS, default=None,
                    help="run one group of the battery")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as root:
        battery.dry_run(root)
    print("[dry run passed]", flush=True)
    battery.run_battery(battery.RESULTS, [args.only] if args.only else battery.GROUPS)
    print("[all done]", flush=True)


if __name__ == "__main__":
    main()
