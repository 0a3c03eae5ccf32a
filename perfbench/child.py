"""One fresh interpreter: set up ristensor, optionally run one CLI call, report.

    python3 child.py setup CONFIG RESULT_JSON
    python3 child.py run CONFIG RESULT_JSON [SPAN_DIR]

`setup` times `import ristensor` plus `load_config` and stops. `run` then calls
`ristensor.cli.main(["run", "--config", CONFIG])`, the program's own front end.
With SPAN_DIR the call is traced: wrappers from spans.py are installed after
the import, removed after the call, and the spans of this process are written
to RESULT_JSON (pool workers write theirs into SPAN_DIR).
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ristensor  # noqa: E402
import ristensor.cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import numpy  # noqa: E402  (already loaded by ristensor)
import scipy  # noqa: E402

import spans  # noqa: E402

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        **{var: os.environ.get(var, "unset") for var in _THREAD_VARS},
    }


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN is the largest reaped
    # child, which covers every pool worker once the pool has shut down
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv):
    mode, config, result_path = argv[:3]
    span_dir = argv[3] if len(argv) > 3 else None
    src = Path(ristensor.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"imported ristensor from {src}, not from this checkout")

    modules = {name: sys.modules[name] for name in {t[0] for t in spans.TARGETS}}
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in spans.TARGETS}
    recorder = None
    if span_dir is not None:
        recorder = spans.Recorder(span_dir)
        recorder.install(modules)

    t0 = time.perf_counter()
    ristensor.cli.load_config(config)
    t_loaded = time.perf_counter()
    result = {
        "import_s": T_IMPORTED - T_START,
        "load_config_s": t_loaded - t0,
        "setup_s": T_IMPORTED - T_START + t_loaded - t0,
        "env": environment(),
    }
    if mode == "run":
        call = ["run", "--config", config]
        t0 = time.perf_counter()
        if recorder is None:
            rc = ristensor.cli.main(call)
        else:
            with recorder.span("cli.main"):
                rc = ristensor.cli.main(call)
        result["main_s"] = time.perf_counter() - t0
        result["rc"] = rc
        result["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        recorder.uninstall()
        result["spans"] = recorder.spans
        result["wrappers_removed"] = spans.wrappers_removed(modules, originals)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if result.get("rc", 0) == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
