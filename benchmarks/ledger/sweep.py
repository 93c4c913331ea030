"""Publish-rate sweep that places the engine rate below the saturation knee.

Builds the ``deliver`` deployment for one seed, then publishes the
stream through fresh delivery engines at each rate (documents per
simulated time unit), once with the first half of the stream and once
with all of it, under the default affine ``ServiceModel`` and under
``BatchServiceModel``.  Below the knee the simulated p99 latency does not
depend on how long the stream is; past it the backlog grows with the
stream, so the p99 of the full stream exceeds the half stream's.  The
benchmark's ``RATE`` and the table it was chosen from are recorded in
``meta.json``.

Usage, from the repository root::

    python3 benchmarks/ledger/sweep.py --seed 1 --rates 0.02 0.05 0.1 0.2
"""

from __future__ import annotations

import argparse
import sys

import run


def main(argv: list[str] | None = None) -> int:
    """Print one row per (service model, rate)."""
    sys.path.insert(0, str(run.SRC))
    import workloads

    from repro.routing.engine import BatchServiceModel, ServiceModel

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--rates", type=float, nargs="+", default=[0.02, 0.05, 0.1, 0.2, 0.4]
    )
    args = parser.parse_args(argv)
    inputs = workloads.make_inputs(workloads.SIZES["deliver"], args.seed)
    deployment = workloads.deploy(inputs)
    stream = inputs.stream
    brokers = inputs.sizes.brokers
    print("model   rate    p99(half)   p99(full)   peak_queue  growth")
    for label, model in (("affine", ServiceModel()), ("batched", BatchServiceModel())):
        deployment.builder.service(model)
        for rate in args.rates:
            p99 = []
            peak = 0
            for documents in (stream[: len(stream) // 2], stream):
                engine = deployment.builder.build_engine(deployment.overlay)
                workloads.publish(engine, documents, 0, brokers, rate)
                stats = engine.run()
                p99.append(stats.latency_p99)
                peak = stats.peak_queue_depth
            print(
                f"{label:7s} {rate:5.3f} {p99[0]:11.2f} {p99[1]:11.2f} "
                f"{peak:11d}  {p99[1] / p99[0]:6.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
