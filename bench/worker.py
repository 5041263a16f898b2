"""One workload run in a fresh interpreter; started by ``run.py``.

Protocol on stdout: the line ``ready`` as soon as ``sumways.cli`` is
imported and the first inputs are generated (the parent times set-up up to
that line), then one line ``result <json>`` at the end. Everything the
package prints goes to buffers, never to this process's stdout.

    python3 -I bench/worker.py --workload NAME --seed N
        (--seconds S | --requests R) [--trace] [--setup-only]

Only what set-up needs is imported before ``ready``; the serving loop,
checker and tracer are imported after it.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Requests generated during set-up; the rest are drawn between requests.
FIRST_CHUNK = 64


def main(argv=None) -> int:
    import argparse

    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--requests", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import sumways.cli

    src = (ROOT / "src").resolve()
    if src not in Path(sumways.cli.__file__).resolve().parents:
        print("bench: sumways resolves to %s, not to %s" % (sumways.cli.__file__, src),
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Stream

    stream = Stream(WORKLOADS[args.workload](args.seed), FIRST_CHUNK)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import json

    from serve import run_workload

    result = run_workload(stream, ROOT, args.workload, args.seed,
                          seconds=args.seconds, limit=args.requests, trace=args.trace)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
