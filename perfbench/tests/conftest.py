import sys
from pathlib import Path

# the benchmark's modules import each other by name, as its scripts do
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
