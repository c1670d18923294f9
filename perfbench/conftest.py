import sys
from pathlib import Path

# The benchmark's modules import each other by plain name, as run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent))
