"""The metric choices ``PipelineConfig`` accepts.

Kept free of numpy so the command-line parser can offer them as flag
choices without loading the numeric stack.
"""

import math

# 10 * sqrt(2) / ln(10), the dB constant used by most MCD tools
CONVENTIONAL_SCALE = 10.0 * math.sqrt(2.0) / math.log(10.0)

# the factor each PipelineConfig.scale applies to all three MCD values
SCALES = {"plain": 1.0, "conventional": CONVENTIONAL_SCALE}
# "pad" zero-pads the shorter waveform for the plain MCD; "strict" refuses a mismatch
PAD_MODES = ("pad", "strict")
