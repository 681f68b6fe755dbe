import sys
from pathlib import Path

# run.py, spans.py and workloads.py import each other as top-level modules,
# and import probedist from the repository's src/.
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
