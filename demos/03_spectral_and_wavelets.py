# %% [markdown]
# # Spectral features and the wavelet cascade
#
# Frequency-domain features come from a Welch PSD; the multi-level DWT
# splits an epoch into the D1..D5/A5 sub-bands that feed the per-band
# feature columns.

# %%
import numpy as np

from eegfx import (
    Epoch,
    dwt,
    idwt,
    iwbw,
    iwmf,
    peak_frequency,
    psd_welch,
    sef,
    spectral_entropy,
    subband_features,
)
from eegfx.time_features import energy

rng = np.random.default_rng(1)
fs = 256.0
t = np.arange(1024) / fs
x = np.sin(2 * np.pi * 6 * t) + 0.5 * np.sin(2 * np.pi * 40 * t)
x += 0.1 * rng.standard_normal(t.size)
epoch = Epoch(samples=x, fs=fs)

# %% [markdown]
# ## Welch PSD features
#
# The 6 Hz component dominates, so the peak sits there, the weighted
# mean frequency is pulled slightly up by the 40 Hz line, and SEF90
# brackets both.

# %%
psd = psd_welch(epoch)
peak_hz, bandwidth = peak_frequency(psd)
print(f"peak = {peak_hz:g} Hz (FWHM {bandwidth:g} Hz)")
print(f"IWMF = {iwmf(psd):.2f} Hz, IWBW = {iwbw(psd):.2f} Hz")
print(f"SEF90 = {sef(psd, 90):.1f} Hz, spectral entropy = "
      f"{spectral_entropy(psd):.3f} nats")

# %% [markdown]
# ## DWT sub-bands
#
# At 256 Hz the five-level cascade maps D1..D5 to roughly 64-128,
# 32-64, 16-32, 8-16, and 4-8 Hz, with A5 below 4 Hz.  The 6 Hz tone
# lands in D5, the 40 Hz tone in D2.

# %%
decomp = dwt(x, wavelet="d4", levels=5)
table = subband_features(decomp)
for band in decomp.band_names:
    share = table[f"Energy{band}"] / energy(x)
    print(f"{band}: {decomp.band(band).size:5d} coefficients, "
          f"energy share {share:6.2%}")

# %% [markdown]
# The cascade is invertible and energy-preserving, so nothing was lost
# on the way through.

# %%
recon = idwt(decomp)
partition = sum(table[f"Energy{b}"] for b in decomp.band_names)
print(f"max reconstruction error = {np.max(np.abs(recon - x)):.2e}")
print(f"band-energy partition error = "
      f"{abs(partition - energy(x)) / energy(x):.2e}")
