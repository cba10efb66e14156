"""Fast self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py        # from the root of a relboost checkout

- Every workload's generator gives byte-identical files for the same seed
  and different files for another seed.
- Installing the tracer rebinds every module namespace that holds a
  wrapped function (``regtree.solutions`` as well as ``logic.solutions``),
  and uninstalling it restores every original.

That the traced run reproduces the untraced run's model digests, and that
each per-layer counter is non-zero on the workload it is mapped to, is
checked by every ``run.py --trace 1`` run, as failed operations.
"""

from __future__ import annotations

import os
import sys

import layertrace
import workloads


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import relboost
    import relboost.cli  # noqa: F401  (binds relboost.cli for the tracer)

    failures = []
    for name, workload in workloads.WORKLOADS.items():
        first, again, other = (workload.generate(s) for s in (1, 1, 2))
        if first != again:
            failures.append(f"{name}: seed 1 generated different files twice")
        if first == other:
            failures.append(f"{name}: seeds 1 and 2 generated the same files")
        if sorted(first) != sorted(other):
            failures.append(f"{name}: the file set depends on the seed")

    functions = [(mod, attr) for mod, attr, _ in layertrace.WRAPPED if "." not in attr]
    originals = {(mod, attr): getattr(getattr(relboost, mod), attr) for mod, attr in functions}
    if len(layertrace.stale_bindings(relboost)) < len(functions):
        failures.append("stale_bindings misses untraced originals")
    tracer = layertrace.Tracer()
    rebound = set(tracer.install(relboost))
    try:
        stale = layertrace.stale_bindings(relboost)
        failures += [f"not rebound: {s}" for s in stale]
        for needed in (("regtree", "solutions"), ("cli", "atomic_write"),
                       ("cli", "parse_schema"), ("hybrid", "evaluate")):
            if needed not in rebound:
                failures.append(f"{needed[0]}.{needed[1]} was not rebound")
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        if getattr(getattr(relboost, mod), attr) is not fn:
            failures.append(f"{mod}.{attr} not restored")
    if relboost.logic.FactBase.__init__.__name__ != "__init__" or hasattr(
            relboost.logic.FactBase.__init__, "__wrapped__"):
        failures.append("FactBase.__init__ not restored")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
