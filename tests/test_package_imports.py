import json
import os
import subprocess
import sys
from pathlib import Path

import loblab

# runs in a fresh interpreter; importing loblab above has already built the
# kernel, so the child loads it from a warm cache
LAYERS = """
import json, sys
import loblab as lb

def loaded():
    names = ("scipy", "scipy.special", "scipy.integrate", "subprocess")
    print(json.dumps([m for m in names if m in sys.modules]))

loaded()
c = lb.derive_constants(lb.ModelParams(theta_b=2.0))
start = (0.75, c.kappa_L, 0.0, 0.0, c.kappa_R, -0.75)
lb.run_until_renewal(lb.SimConfig(n=400, horizon=100.0, seed=0, initial_scaled_state=start), c)
lb.run_scaled_path(lb.SimConfig(n=400, horizon=0.5, seed=0, initial_scaled_state=start), c)
grid = lb.GridSpec(1.0, 1e-3)
lb.simulate_renewal_limit(c, grid, lb.path_stream(0, 0))
rng = lb.path_stream(0, 1)
gstar = lb.sample_two_speed_timechange(lb.TwoSpeedParams(c.sigma_plus, c.sigma_minus), grid, rng)
lb.decompose_excursions(gstar, 2e-3)
lb.build_bracketing_limits(gstar, c, rng)
loaded()
lb.renewal_down_prob(c)
loaded()
lb.identity_7_62(1.0)
loaded()
"""


def test_book_and_limit_layers_never_load_scipy():
    # scipy is the package's costliest import and only the analytics call
    # it; the kernel loader needs subprocess only to build
    env = {**os.environ, "PYTHONPATH": str(Path(loblab.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", LAYERS], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    after_import, after_layers, after_down_prob, after_identity = (
        json.loads(line) for line in out.stdout.splitlines())
    assert after_import == []
    assert after_layers == []
    # scipy.special itself loads subprocess
    assert "scipy.special" in after_down_prob and "scipy.integrate" not in after_down_prob
    assert "scipy.integrate" in after_identity
