"""One pass of a workload, in a fresh interpreter.

Reads the pass's instances as JSON on standard input and writes its report
as one JSON object on the last line of standard output.  Modes:

  setup   import quadratize and parse every input, then stop
  timed   also solve and render every instance, timing each, then check it
  traced  as timed, with every layer wrapped in spans (see layers.py)

The parent sets PYTHONPATH to the checkout's ``src``; the worker refuses a
quadratize imported from anywhere else.
"""

import json
import os
import sys
import time

import quadratize
from quadratize import bnb_search, document_violations, parse_system, render_result
from quadratize.solver import per_variable_degrees


def box_order(system) -> int:
    """Order of the degree-box quadratization, prod(D_i + 1) - 1 - #{i : D_i >= 1},
    counted in closed form rather than by materializing the box."""
    size = 1
    degrees = per_variable_degrees(system)
    for d in degrees:
        size *= d + 1
    return size - 1 - sum(1 for d in degrees if d >= 1)


def problems_of(instance, system, result, rendered) -> list[str]:
    """Why an instance's answer is wrong; empty when it passes the gate."""
    problems = [f"document violation: {v}"
                for v in document_violations(system, result.document)]
    if not (result.optimal and json.loads(rendered)["optimal"] is True):
        problems.append("not marked optimal")
    optimum = instance["optimum"]
    if optimum is not None and result.order != optimum:
        problems.append(f"order {result.order}, known optimum {optimum}")
    if optimum is None and result.order > box_order(system):
        problems.append(f"order {result.order} exceeds the degree-box order")
    return problems


def main() -> int:
    mode = sys.argv[1]
    source = os.path.join(os.environ["BENCH_ROOT"], "src", "quadratize", "")
    if not quadratize.__file__.startswith(source):
        sys.stderr.write(f"quadratize imported from {quadratize.__file__}, not {source}\n")
        return 3
    instances = json.load(sys.stdin)
    tracer = None
    if mode == "traced":
        from layers import PARSE, RENDER, SEARCH, VERIFY, Tracer
        tracer = Tracer()
        tracer.install()

    systems, parse_s = [], []
    for i, instance in enumerate(instances):
        start = time.perf_counter()
        try:
            if tracer is None:
                systems.append(parse_system(instance["text"]))
            else:
                tracer.instance = i
                systems.append(tracer.call(PARSE, parse_system, instance["text"]))
        except Exception as exc:  # counted as a failed instance below
            systems.append(exc)
        parse_s.append(time.perf_counter() - start)
    ready = time.monotonic()
    out = {"ready": ready}
    if mode == "setup":
        sys.stdout.write("\n" + json.dumps(out) + "\n")
        return 0

    # Imported after the set-up is timed: no user of quadratize pays for them.
    import hashlib
    import resource

    records = []
    for i, (instance, system) in enumerate(zip(instances, systems)):
        record = {"name": instance["name"]}
        records.append(record)
        if isinstance(system, Exception):
            record["problems"] = [f"parse failed: {system!r}"]
            continue
        try:
            start = time.perf_counter()
            if tracer is None:
                result, stats = bnb_search(system)
                rendered = render_result(result.document, "structured")
            else:
                tracer.instance = i
                result, stats = tracer.call(SEARCH, bnb_search, system)
                rendered = tracer.call(RENDER, render_result, result.document, "structured")
            record["latency_s"] = parse_s[i] + time.perf_counter() - start
            record["stats"] = stats.as_dict()
            record["digest"] = hashlib.sha256(rendered.encode()).hexdigest()
            if tracer is None:
                record["problems"] = problems_of(instance, system, result, rendered)
            else:
                record["problems"] = tracer.call(
                    VERIFY, problems_of, instance, system, result, rendered)
        except Exception as exc:  # an exception is a failed instance, not a crash
            record["problems"] = [f"raised {exc!r}"]

    out["instances"] = records
    if tracer is not None:
        out["layers"] = tracer.metrics()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
