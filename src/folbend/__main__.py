import os
# Set before numpy loads: the CLI's BLAS work is 15-element dots, and a thread pool only costs CPU.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
