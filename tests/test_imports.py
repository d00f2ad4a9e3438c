"""What a cold `import geodesy` loads, each case in a fresh interpreter.

geodesy takes only LAPACK's dgetrf and dgetrs from scipy, loaded from scipy's
compiled LAPACK module alone: scipy/__init__.py and scipy.linalg, whose
array-API layer imports numpy.f2py, stay out of a cold start, and so does
numpy.polynomial, as the quadrature nodes come from numpy.linalg.eigvalsh.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import geodesy

SRC = os.path.dirname(os.path.dirname(os.path.abspath(geodesy.__file__)))

# ten Kepler MGI p=4 steps, each printed as its coefficients' bytes and its Newton iterations
KEPLER_MGI = """
from geodesy import get_problem, mgi_step
kepler = get_problem("kepler")
y, records = kepler.y0, []
for k in range(10):
    sol = mgi_step(kepler.system, y, k * kepler.dt_ref, kepler.dt_ref, 4)
    records.append(sol.coefficients.tobytes().hex() + f":{sol.newton_iterations}")
    y = sol.endpoint()
print("\\n".join(records))
"""

# makes geodesy.newton's own load of _flapack, the first one, fail at one point: the lookup
# finds nothing, creating the extension raises ImportError (an extension whose libraries are not
# on the search path), or running it does; each failed module object is kept in `failed`
FAILED_DIRECT_LOAD = """
import importlib.machinery
PathFinder, Loader = importlib.machinery.PathFinder, importlib.machinery.ExtensionFileLoader
failed = []

def fails(fullname):
    if fullname.rpartition(".")[2] == "_flapack" and not failed:
        failed.append(fullname)
        return True
    return False

def find_spec(fullname, path=None, target=None, real=PathFinder.find_spec):
    return None if {where!r} == "find_spec" and fails(fullname) else real(fullname, path, target)

def create_module(self, spec, real=Loader.create_module):
    if {where!r} == "create_module" and fails(spec.name):
        raise ImportError("creating " + spec.name + " failed")
    return real(self, spec)

def exec_module(self, module, real=Loader.exec_module):
    if {where!r} == "exec_module" and fails(module.__name__):
        failed.append(module)
        raise ImportError("running " + module.__name__ + " failed")
    return real(self, module)

PathFinder.find_spec = staticmethod(find_spec)
Loader.create_module, Loader.exec_module = create_module, exec_module
"""


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cold_start_loads_lapack_without_scipy_linalg():
    run_fresh(
        """
        import sys
        import geodesy, geodesy.cli
        from geodesy import get_problem, mci_step
        pendulum = get_problem("pendulum")
        mci_step(pendulum.system, pendulum.y0, 0.0, pendulum.dt_ref, 2)
        loaded = [m for m in ("scipy", "scipy.linalg", "numpy.f2py") if m in sys.modules]
        assert not loaded, loaded
        # both quadrature rules come from the Jacobi-matrix eigenvalues, not numpy.polynomial
        assert "numpy.polynomial" not in sys.modules
        # a later scipy.linalg reuses the loaded module: the same routines, not lookalikes
        import scipy.linalg.lapack
        assert geodesy.newton.dgetrf is scipy.linalg.lapack.dgetrf
        assert geodesy.newton.dgetrs is scipy.linalg.lapack.dgetrs
        """
    )


@pytest.mark.parametrize("where", ["find_spec", "create_module", "exec_module"])
def test_failed_direct_load_falls_back_to_scipy_linalg_bitwise(where):
    fallback = run_fresh(
        FAILED_DIRECT_LOAD.format(where=where)
        + """
import sys
import geodesy.newton
assert failed[0] == "scipy.linalg._flapack", failed
assert "scipy.linalg" in sys.modules
# the half-loaded module was dropped: scipy.linalg loaded _flapack afresh
assert all(sys.modules["scipy.linalg._flapack"] is not m for m in failed[1:])
import scipy.linalg.lapack
assert geodesy.newton.dgetrf is scipy.linalg.lapack.dgetrf
assert geodesy.newton.dgetrs is scipy.linalg.lapack.dgetrs
"""
        + KEPLER_MGI
    )
    direct = run_fresh(KEPLER_MGI + "import sys\nassert 'scipy.linalg' not in sys.modules\n")
    assert fallback.splitlines() == direct.splitlines()
    assert len(direct.splitlines()) == 10
