"""One slicelab CLI run in its own process, timed from outside the program.

    python3 perfbench/child.py <record-prefix> <trace 0|1> <slicelab args...>

Imports slicelab from the ``src`` directory of the checkout this file sits
in, runs ``slicelab.cli.main(<slicelab args>)`` and writes
``<record-prefix>.json`` with the exit status, ``perf_counter`` stamps
(CLOCK_MONOTONIC, so the parent can subtract its own spawn stamp), the
import time and the peak resident set size.  With trace 1 the spans of the
run go to ``<record-prefix>.spans.npz`` and ``.spans.json`` as well.

Set-up ends where the run starts working: when the initial state is built
(``sim-*`` modes) or when the first Monte Carlo path draws its stream.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _mark_setup_end(stamps: dict, mode: str):
    """Record when set-up ends; the hook removes itself on first use."""
    from spans import patch_everywhere

    if mode.startswith("sim-"):
        module, attr, at_return = "runner", "_initial_state", True
    else:
        module, attr, at_return = "experiments", "_path_rng", False
    undo = []

    def make(orig):
        def first_call(*args, **kwargs):
            if not at_return:
                stamps["setup_end"] = time.perf_counter()
            undo[0]()
            out = orig(*args, **kwargs)
            if at_return:
                stamps["setup_end"] = time.perf_counter()
            return out
        return first_call
    undo.append(patch_everywhere(module, attr, make))


def main(argv) -> int:
    prefix, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import slicelab.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(slicelab.cli.__file__).startswith(SRC + os.sep):
        print(f"child: imported slicelab from {slicelab.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 90

    stamps = {"import_s": import_s}
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    _mark_setup_end(stamps, cli_args[0])

    status = slicelab.cli.main(cli_args)
    stamps["end"] = time.perf_counter()
    stamps["status"] = status
    # ru_maxrss is in KiB on Linux
    stamps["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(prefix + ".spans")
    with open(prefix + ".json", "w", encoding="ascii") as fh:
        json.dump(stamps, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
