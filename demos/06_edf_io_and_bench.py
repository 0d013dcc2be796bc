# %% [markdown]
# # EDF files and runtime scaling
#
# Records persist as EDF (16-bit quantized, standard header).  Writing
# loses at most half a quantization step; re-writing what was read is
# byte-identical because the file's own calibration is reused.

# %%
import tempfile
from pathlib import Path

import numpy as np

from eegfx import SynthSpec, read_edf, synth_record, write_edf

record = synth_record(
    SynthSpec(duration_s=20.0, channels=("C3", "C4"), seed=5)
)
with tempfile.TemporaryDirectory() as tmp:
    first = Path(tmp) / "a.edf"
    second = Path(tmp) / "b.edf"
    write_edf(record, first)
    loaded = read_edf(first)

    step = np.ptp(record.data) / 65535
    err = np.max(np.abs(loaded.data - record.data))
    print(f"quantization error = {err:.4e} (half step = {step / 2:.4e})")

    write_edf(loaded, second)
    print("write(read(file)) is byte-identical:",
          first.read_bytes() == second.read_bytes())
    header = first.read_bytes()[:256]
    print("header starts:", header[:32])

# %% [markdown]
# ## Runtime scaling
#
# The bench harness times each feature on growing signals and fits a
# log-log slope: the streaming features sit near 1 (linear), the
# template entropies near 2 (quadratic).  Distinct signals per size
# keep cache effects out of the exponent; each round times every size
# back to back and fits its own slope, and the median over rounds is
# reported, so a change of host speed cannot split the fit.  Each
# feature's per-call floor (its time on a 16-sample signal) is
# subtracted first, so fixed call overhead does not pull the slope
# below the true exponent.

# %%
from eegfx import run_bench
from eegfx.bench import LINEAR_SUITE, QUADRATIC_SIZES, QUADRATIC_SUITE

for result in run_bench(LINEAR_SUITE, sizes=(16384, 32768, 65536), repeats=3):
    per_sample = result.seconds[-1] / result.sizes[-1] * 1e9
    print(f"{result.feature:12s} slope = {result.slope:.2f}  "
          f"({per_sample:.1f} ns/sample at N = {result.sizes[-1]})")

for result in run_bench(QUADRATIC_SUITE, sizes=QUADRATIC_SIZES, repeats=3):
    print(f"{result.feature:12s} slope = {result.slope:.2f}  "
          f"({result.seconds[-1] * 1e3:.1f} ms at N = {result.sizes[-1]})")
