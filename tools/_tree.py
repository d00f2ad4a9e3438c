"""What every tool here shares: one BLAS thread, the repository root, --src and one loader.

Each tool imports this module before numpy, since the thread pin takes
effect only when it precedes numpy's import. load imports the geodesy
package of a tree by its path, under a module name the tool picks, so the
package it returns is that tree's, whatever geodesy the process has
imported or can import.
"""

import importlib.util
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def add_src(parser):
    """The --src argument: the src/ directory of the tree to load, by default this repository's."""
    parser.add_argument(
        "--src", default=os.path.join(ROOT, "src"), help="the src/ directory of the tree to load"
    )


def load(parser, src, name):
    """The geodesy package under src, imported by its path as the package name.

    A src without geodesy/__init__.py exits 2 through parser.error. Every
    module loaded earlier as name or name.* is dropped first: the package's
    relative imports would otherwise return those submodules, of the tree
    loaded before, in place of this tree's own.
    """
    package = os.path.join(os.path.abspath(src), "geodesy")
    init = os.path.join(package, "__init__.py")
    if not os.path.isfile(init):
        parser.error(f"{src} holds no geodesy package")
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # before it runs, so its relative imports find it
    spec.loader.exec_module(module)
    return module
