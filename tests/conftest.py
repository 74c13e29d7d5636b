import os
from pathlib import Path

# pyproject's ``pythonpath`` reaches this process only; the CLI tests run
# ``python -m fibtrace.cli`` in child processes, which need PYTHONPATH
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
