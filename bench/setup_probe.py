"""Time one user's set-up in a fresh interpreter.

    python3 bench/setup_probe.py SRC SEED CONFIG...

Imports numpy and times the reference task three times, both before the
clock starts. It then times what a new ``brwre`` process pays before its
first command runs: importing the package and its CLI, then parsing,
validating and building the environment for every config file. Prints the
set-up seconds and the median reference seconds. The reference is timed in
the same process just before the set-up, so it sees the same host speed,
and before brwre is imported, so the program cannot change it. Nothing but
numpy and built-in modules is imported before the clock starts, so every
module brwre needs is paid for inside it.
"""

import sys
import time

from reference import Reference


def main(src, seed, configs):
    reference = Reference()
    reference_s = sorted(reference.time() for _ in range(3))[1]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import brwre
    import brwre.cli  # noqa: F401

    for path in configs:
        with open(path) as fh:
            cfg = brwre.config.parse_config(fh.read())
        brwre.environment.validate(cfg.spec)
        brwre.environment.RealizedEnvironment(cfg.spec, seed)
    elapsed = time.perf_counter() - start
    from pathlib import Path

    if Path(brwre.__file__).resolve().parent != (Path(src) / "brwre").resolve():
        sys.exit(f"brwre imported from {brwre.__file__}, not {src}")
    print(repr(elapsed), repr(reference_s))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3:])
