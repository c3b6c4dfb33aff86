import os

# qnav's matrices are a few levels wide, far below the sizes OpenBLAS splits
# across threads, yet by default it starts one spinning worker per core when
# numpy loads. OpenBLAS reads its thread count once, at load, so it is set
# before the first numpy import (`import qnav` loads none). OPENBLAS_NUM_THREADS
# outranks OMP_NUM_THREADS there, so a caller's setting of either stands.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
