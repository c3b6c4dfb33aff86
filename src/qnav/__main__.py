import gc
import os

# qnav's matrices are a few levels wide, far below the sizes OpenBLAS splits
# across threads, yet by default it starts one spinning worker per core when
# numpy loads. OpenBLAS reads its thread count once, at load, so it is set
# before the first numpy import (`import qnav` loads none). OPENBLAS_NUM_THREADS
# outranks OMP_NUM_THREADS there, so a caller's setting of either stands.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# A CLI call is mostly start-up: importing numpy and qnav builds a heap of
# long-lived objects that the cyclic collector would walk many times during
# the import and again at exit, for nothing. The collector is off while they
# are built, and gc.freeze() moves them to the permanent generation, out of
# every later pass. The collector is left as it was found, failed import or not.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    from .cli import main  # noqa: E402

    gc.freeze()
finally:
    if _gc_was_enabled:
        gc.enable()
del _gc_was_enabled

if __name__ == "__main__":
    raise SystemExit(main())
