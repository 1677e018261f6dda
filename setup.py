from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the compiled kernels if possible; the package runs without them."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler etc.
            print(f"WARNING: compiled kernels skipped ({exc}); pure-Python fallback will be used")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"WARNING: building {ext.name} failed ({exc}); pure-Python fallback will be used")


setup(
    ext_modules=[
        Extension(
            "franelcheck.kernels._native",
            ["src/franelcheck/kernels/_native.c"],
            extra_compile_args=["-O3"],
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
