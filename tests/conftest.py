import os
from pathlib import Path

# pyproject's ``pythonpath`` and ``filterwarnings`` reach this process only;
# the CLI tests run ``python -m fibtrace.cli`` in child processes, which
# need PYTHONPATH, and in which a RuntimeWarning must fail as it does here
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"
