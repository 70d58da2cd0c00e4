import sys
from pathlib import Path

# src layout: make the package importable without installation, and the
# benchmark's independent references (perfbench/reference.py) importable
# by the tests as `reference`
root = Path(__file__).parent
for path in (str(root / "perfbench"), str(root / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
