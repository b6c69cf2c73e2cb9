import numpy
from setuptools import Extension, setup

# -ffp-contract=off keeps multiply-adds unfused, as in the pure kernel.
ext = Extension(
    "windgfm._kernel._ode_cy",
    ["src/windgfm/_kernel/_ode_cy.c"],
    extra_compile_args=["-O3", "-ffp-contract=off"],
    include_dirs=[numpy.get_include()],
)

setup(ext_modules=[ext])
