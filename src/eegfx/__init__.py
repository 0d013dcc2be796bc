"""EEG feature extraction, significance ranking, and subset selection.

Subpackage map:

- :mod:`eegfx.signals` — epochs, records, montage, segmentation
- :mod:`eegfx.time_features` — time-domain feature catalog, including
  the shared ``moments`` kernel
- :mod:`eegfx.freq_features` — Welch PSD and spectral features
- :mod:`eegfx.wavelets` — DWT cascade and sub-band features
- :mod:`eegfx.evaluation` — KDE Bayes error, significance, feature ranking,
  epoch detection metrics
- :mod:`eegfx.cfs` — correlation-based feature selection
- :mod:`eegfx.edf`, :mod:`eegfx.annotations`, :mod:`eegfx.synth` — I/O & synthesis
- :mod:`eegfx.pipeline` — record -> feature table extraction through one
  feature registry, with hemisphere means over montage sides
- :mod:`eegfx.bench` — runtime-scaling slopes of feature functions
- :mod:`eegfx.cli` — extract | evaluate | select | synth | bench

The top level republishes every module's ``__all__`` except ``cli``'s.
"""

__version__ = "0.1.0"

from eegfx.signals import *  # noqa: F401,F403
from eegfx.time_features import *  # noqa: F401,F403
from eegfx.freq_features import *  # noqa: F401,F403
from eegfx.wavelets import *  # noqa: F401,F403
from eegfx.evaluation import *  # noqa: F401,F403
from eegfx.cfs import *  # noqa: F401,F403
from eegfx.feature_table import *  # noqa: F401,F403
from eegfx.edf import *  # noqa: F401,F403
from eegfx.annotations import *  # noqa: F401,F403
from eegfx.synth import *  # noqa: F401,F403
from eegfx.config import *  # noqa: F401,F403
from eegfx.pipeline import *  # noqa: F401,F403
from eegfx.bench import *  # noqa: F401,F403
