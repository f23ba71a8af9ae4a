import gc
import os
# Set before numpy loads: the CLI's BLAS work is 15-element dots, and a thread pool only costs CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from . import cli  # noqa: E402


def main() -> int:
    """``cli.main`` for a short-lived process: no collection runs while it
    computes, and every object is frozen before it returns, so the
    interpreter's final collection has nothing to walk."""
    gc.disable()
    try:
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
