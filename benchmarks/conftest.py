import os
import sys

# The benchmark imports survbench from the checkout's src/, as run.py does.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
