"""The golden contract holds across CPU kernels, not only on the default one.

``tests/test_golden.py`` compares values at a stated relative tolerance
because the last digits of ``eigh`` and its rebuilds depend on the BLAS
kernel and on numpy's SIMD dispatch.  This test reruns that module in a
child process under OpenBLAS's ``Sandybridge`` kernel, and again with the
AVX-512 features numpy dispatches to on this CPU switched off.  The
variables are set for the child only.  On an OpenBLAS built without
``DYNAMIC_ARCH`` the core type changes nothing, and on a CPU without
AVX-512 nothing is switched off, so the reruns then repeat the default run.
"""

import os
import subprocess
import sys
from pathlib import Path

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parent.parent


def avx512_dispatch() -> list[str]:
    """The AVX-512 targets numpy dispatches to that this CPU has (X86_V4 is
    the AVX-512 level of x86-64)."""
    return [
        name
        for name in __cpu_dispatch__
        if (name.startswith("AVX512") or name == "X86_V4") and __cpu_features__.get(name)
    ]


def test_golden_holds_across_kernels(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    settings = {
        "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
        "no-avx512": {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512_dispatch())},
    }
    for name, variables in settings.items():
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--basetemp", str(tmp_path / name), str(ROOT / "tests" / "test_golden.py")],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": path, **variables},
            capture_output=True,
            text=True,
        )
        assert child.returncode == 0, f"{name} {variables}:\n{child.stdout[-3000:]}"
