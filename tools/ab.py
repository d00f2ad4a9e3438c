"""In-process A/B timing of two source trees on one element workload, alternated per round.

Usage, from the repository root:

    python3 tools/ab.py --a SRC --b SRC --case NAME [--rounds R] [--ops K]

--a and --b name the src/ directories of the two trees. Each is loaded by
its path, whatever geodesy the process could import, and the two load side
by side in one process as the packages geodesy_a and geodesy_b, so both run
under the same interpreter, allocator and CPU state, which separate
processes do not share; a directory that holds no geodesy package is
refused with exit status 2. --a may equal --b: an A/A round, whose ratios show
the protocol's own noise. The cases are the benchmark's element workloads,
pendulum-mci, kepler-mgi and lv-fd: bench/workloads.py is loaded once per
tree, with that tree as its geodesy, so each tree runs the workload's own
system, method, order, step, steps per operation, initial state (that of
bench/run.py's seed 0) and operation.

An operation integrates that many steps from the previous operation's end
state, so each tree runs one long trajectory. Both trees first run K
untimed operations (default 10); then each round times K operations on each
tree, A first in even rounds and B first in odd ones, after a garbage
collection. The ratio of a round is B's time over A's.

Prints one JSON line: the case, the rounds, whether every operation's nodal
record and invariant series are bitwise equal between the trees, the ratio
per round, their median and the wins (rounds in which B was faster).
"""

import argparse
import gc
import importlib
import importlib.util
import json
import os
import statistics
import sys
from time import perf_counter

import _tree  # pins BLAS to one thread, so before numpy

WORKLOADS = os.path.join(_tree.ROOT, "bench", "workloads.py")
# the workloads whose operation is one integrate call; dense-output's runs the CLI
CASES = ("pendulum-mci", "kepler-mgi", "lv-fd")
SEED = 0  # picks the workload's initial state


def load_workloads(g, name):
    """bench/workloads.py imported as name, with the package g as its geodesy."""
    aliases = {"geodesy": g, "geodesy.cli": importlib.import_module(g.__name__ + ".cli")}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)  # what the module's import geodesy and geodesy.cli bind
    try:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key, module_before in saved.items():
            if module_before is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module_before
    return module


class Runner:
    """One tree's trajectory of the workload, advanced one operation at a time."""

    def __init__(self, g, case):
        self.workload = load_workloads(g, g.__name__ + "_workloads").WORKLOADS[case](SEED, None)
        self.steps = self.workload.steps_per_op
        self.y = self.workload.y0

    def run(self, ops):
        """The (record, invariant series) of ops operations, each from the last one's end."""
        outputs = []
        for _ in range(ops):
            traj = self.workload.op(self.y, self.steps)
            self.y = self.workload.finish(self.y, self.steps, traj).y_end
            outputs.append((traj.record, traj.invariants))
        return outputs

    def timed(self, ops):
        gc.collect()
        start = perf_counter()
        outputs = self.run(ops)
        return perf_counter() - start, outputs


def _same_bits(a, b):
    (rec_a, inv_a), (rec_b, inv_b) = a, b
    return (
        rec_a.shape == rec_b.shape
        and rec_a.tobytes() == rec_b.tobytes()
        and list(inv_a) == list(inv_b)
        and all(inv_a[k].tobytes() == inv_b[k].tobytes() for k in inv_a)
    )


def compare(geodesy_a, geodesy_b, case, rounds, ops):
    """The JSON record of rounds alternated A/B rounds of ops operations each."""
    a, b = Runner(geodesy_a, case), Runner(geodesy_b, case)
    # the untimed warm-up: caches, allocator and branch state; both trajectories stay in step
    bitwise = all(map(_same_bits, a.run(ops), b.run(ops)))
    ratios = []
    for k in range(rounds):
        if k % 2 == 0:
            (t_a, out_a), (t_b, out_b) = a.timed(ops), b.timed(ops)
        else:
            (t_b, out_b), (t_a, out_a) = b.timed(ops), a.timed(ops)
        ratios.append(t_b / t_a)
        bitwise = bitwise and all(map(_same_bits, out_a, out_b))
    return {
        "case": case,
        "rounds": rounds,
        "ops": ops,
        "seed": SEED,
        "steps_per_op": a.steps,
        "bitwise": bitwise,
        "ratios": [round(r, 4) for r in ratios],
        "median": round(statistics.median(ratios), 4),
        "wins": sum(r < 1.0 for r in ratios),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", required=True, help="src/ directory of tree A")
    parser.add_argument("--b", required=True, help="src/ directory of tree B")
    parser.add_argument("--case", required=True, choices=CASES)
    parser.add_argument("--rounds", type=int, default=20, help="alternated timed rounds")
    parser.add_argument("--ops", type=int, default=10, help="operations per tree and round")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.ops < 1:
        parser.error("--rounds and --ops must be at least 1")
    geodesy_a = _tree.load(parser, args.a, "geodesy_a")
    geodesy_b = _tree.load(parser, args.b, "geodesy_b")
    print(json.dumps(compare(geodesy_a, geodesy_b, args.case, args.rounds, args.ops)))


if __name__ == "__main__":
    main()
