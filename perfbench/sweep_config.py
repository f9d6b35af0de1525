"""The criterion-6 sweep that the stress-sweep workload and its panel share."""

SIGMAS = (1.0, 1.0, 1.0, 1.0, 4.0)
VOTERS = 1000
PARALLEL = 2
# Criterion 6 of the acceptance suite sweeps seed 2026; panel entry j runs the
# same distribution at experiment seed BASE_SEED + j.
BASE_SEED = 2026
PANEL_ENTRIES = 8
TRIALS_PER_ENTRY = 12


def experiment_config(sim, experiment_seed, trials):
    """ExperimentConfig for the first `trials` trials of one panel entry."""
    dist = sim.PreferenceDistribution("diagonal-gaussian", len(SIGMAS), sigmas=SIGMAS)
    return sim.ExperimentConfig(dist, V_grid=(VOTERS,), trials=trials,
                                seed=experiment_seed, epsilon=0.1, delta=0.05)
