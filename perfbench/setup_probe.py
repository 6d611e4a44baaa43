"""Child process for the set-up timings; started by run.py and layers.py.

    setup_probe.py setup <workload>   import, pay the workload's first-call
                                      cost, print time.monotonic()
    setup_probe.py import-cli         print the seconds `import gwentropy.cli` takes

time.monotonic() is one system-wide clock on Linux, so the parent subtracts
the moment it started this interpreter to get the set-up time.
"""

import sys
import time

import package


def main() -> None:
    if sys.argv[1] == "import-cli":
        started = time.perf_counter()
        package.load()
        import gwentropy.cli  # noqa: F401

        print(time.perf_counter() - started)
        return
    package.load()
    import workloads

    workloads.warm_up(sys.argv[2])
    print(time.monotonic())


if __name__ == "__main__":
    main()
