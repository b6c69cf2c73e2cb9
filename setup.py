import numpy
from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    # Cython unavailable: build the committed generated C source instead.
    cythonize = None

ext = Extension(
    "windgfm._kernel._ode_cy",
    ["src/windgfm/_kernel/_ode_cy.pyx" if cythonize else
     "src/windgfm/_kernel/_ode_cy.c"],
    extra_compile_args=["-O3"],
    include_dirs=[numpy.get_include()],
)
ext_modules = cythonize([ext], language_level=3) if cythonize else [ext]

setup(ext_modules=ext_modules)
