"""Pilot-pinned thresholds and regression constants.

The local sign-change probability threshold and the averaged-V growth
floor are not derivable in closed form at desk scale, so they are pinned
by a documented pilot run at PILOT_SEED and regression-tested thereafter.
Regenerate with ``python scripts/run_pilot.py`` and paste the printed
block here; the acceptance suite runs at ACCEPTANCE_SEED, deliberately a
different stream from the pilot.

The Mertens census values are deterministic (no seed); they were computed
once by the segmented walker and cross-checked against the classical
value of the Mertens function at 1e6 and an independent all-minus-signs
multiplicative walk.
"""

PILOT_SEED = 20240601
ACCEPTANCE_SEED = 987654321

# --- filled by scripts/run_pilot.py (values from the pilot run) ---

# criterion: local sign-change probability, x in {1e3, 1e4, 1e5}, N=8, 1e3 samples
# (p, bootstrap se) per x; theta = min over x of p - 4 sqrt(2) se: a rerun at
# another seed fails only if it falls 4 se of the difference of two
# independent estimates below the pilot's p at some x
THETA_SIGNPROB: float = 0.941167
SIGNPROB_PILOT_POINTS: dict = {
    "1000": (0.983, 0.00414),
    "10000": (0.978, 0.004808),
    "100000": (0.971, 0.005274),
}

# criterion: averaged-V growth floor kappa-hat = min over the x_ell grid of
# E V(x) * (loglog x)^0.51 / log x at the pilot seed (600 samples)
KAPPA_AVG_V: float = 4.453571
AVG_V_PILOT_RATIOS: dict = {
    "3223.98": 4.453571,
    "18581.8": 9.53412,
    "111411": 20.514007,
    "691187": 45.718385,
}

# deterministic Mertens census to 1e6 (zero-skip policy); the final value
# matches the classical Mertens function at 1e6
MERTENS_1E6_CHANGES: int = 1652
MERTENS_1E6_FINAL: int = 212
