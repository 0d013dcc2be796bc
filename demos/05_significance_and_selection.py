# %% [markdown]
# # Ranking features and picking a subset
#
# Significance: fit a Gaussian KDE per class, integrate the Bayes
# error of the two-class mixture, and report the improvement over
# always predicting the majority class.  Selection: greedy forward
# search on the correlation-based merit.

# %%
import numpy as np

from eegfx import (
    Montage,
    RunConfig,
    SynthSpec,
    bayes_error,
    err0,
    extract,
    fit_kde,
    forward_search,
    rank_features,
    synth_record,
)

# %% [markdown]
# ## Bayes error on a known mixture
#
# Two unit Gaussians at +-1 with equal priors have a closed-form
# minimum error of about 0.159; the KDE estimate lands nearby.

# %%
rng = np.random.default_rng(0)
model = fit_kde((rng.normal(-1, 1, 5000), rng.normal(+1, 1, 5000)))
print(f"KDE Bayes error = {bayes_error(model):.4f} (closed form 0.1587)")
print(f"baseline err0(4677, 263424) = {err0(4677, 263424):.4f}")

# %% [markdown]
# ## Significance on an extracted table
#
# `rank_features` scores every column the way `eegfx evaluate` does:
# best rate first, ties by column name, and any column it cannot score
# set aside with the reason.  Amplitude-family features dominate the
# ranking; a distribution-shape feature like skewness trails far behind.

# %%
spec = SynthSpec(
    duration_s=120.0,
    channels=("F3", "C3", "F4", "C4"),
    seizure_intervals=((40.0, 55.0), (90.0, 100.0)),
    seizure_gain=4.0,
    seed=3,
)
config = RunConfig(
    montage=Montage(left=("F3", "C3"), right=("F4", "C4")),
    features=("Variance", "Energy", "NE", "Skewness", "SampEn"),
)
table = extract(synth_record(spec), config)
reports, skipped = rank_features(table)
for r in reports:
    flag = "significant" if r.significant else "not significant"
    print(f"{r.feature_id + r.hemisphere:9s} err_b = {r.err_b:.4f}, "
          f"rate = {r.rate:6.1f}%  ({flag})")
for reason in skipped.values():
    print(f"skipped {reason}")

# %% [markdown]
# ## Forward selection
#
# Merit rewards feature-class correlation and punishes redundancy, so
# after one amplitude feature enters, its near-duplicates add little
# and the trace flattens.

# %%
trace = forward_search(table, max_size=6)
for rank, (feature, m) in enumerate(zip(trace.features, trace.merits), 1):
    marker = " <- best" if rank == trace.best_size else ""
    print(f"{rank}. {feature:10s} merit = {m:.4f}{marker}")
print("best subset:", ", ".join(trace.best_subset))
