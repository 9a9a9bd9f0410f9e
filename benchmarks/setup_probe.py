"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is importing ``steiner.cli``, loading one instance file and building
its ``Objective``: the work a `steiner solve` process does before tracing.

    python3 benchmarks/setup_probe.py SRC_DIR INSTANCE_JSON
"""

import sys
import time


def main(src: str, instance: str) -> None:
    sys.path.insert(0, src)
    start = time.perf_counter()
    import steiner.cli as cli
    inst = cli.load_instance(instance)
    cli.Objective(inst.anchors, inst.potential)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:])
