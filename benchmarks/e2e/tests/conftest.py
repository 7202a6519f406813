import pathlib
import sys

# the benchmark's modules and the package they drive
E2E = pathlib.Path(__file__).resolve().parents[1]
for path in (E2E, E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
