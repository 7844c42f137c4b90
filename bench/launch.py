"""Cold-process entry for one `rayform` subcommand, as the benchmark runs it.

    python3 bench/launch.py [--trace-job ID] SUBCOMMAND ARGS...
    python3 bench/launch.py --import-only

Imports rayform from the checkout's src/, optionally installs the benchmark's
span wrappers, calls rayform.cli.main(argv) and exits with its status.  The
last line on stderr is a JSON status object: the import time (which includes
modular's import-time self-test), this process's peak RSS and, when traced,
the span statistics and kept spans.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import rayform.cli

    status = {"import_s": time.perf_counter() - start}
    argv = sys.argv[1:]
    code = 0
    rec = None
    if argv[:1] == ["--trace-job"]:
        import spans

        rec = spans.Recorder()
        rec.job = int(argv[1])
        argv = argv[2:]
        spans.install(rec)
    if argv != ["--import-only"]:
        code = rayform.cli.main(argv)
    sys.stdout.flush()
    if rec is not None:
        status["stats"] = rec.summary()
        status["spans"] = rec.spans()
        status["dropped"] = rec.dropped
    status["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(status), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
