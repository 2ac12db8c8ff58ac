"""One fresh-process set-up: import sdfreach, load the model, build the trial config.

Run by ``run.py`` with ``python3 setup_probe.py <src dir> <rep> <aware 0|1>``;
prints the seconds from interpreter start of this script to a ready
``TrialConfig`` (rep and audit sampling included).
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from sdfreach import bench, kinematics  # noqa: E402

aware = sys.argv[3] == "1"
model = kinematics.load_default_model()
bench.make_trial_config(model, sys.argv[2], constraints=aware, active_cost=aware)
print(time.perf_counter() - t0)
