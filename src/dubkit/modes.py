"""Every flag choice the command-line parser offers that a layer checks:
``PipelineConfig``'s scales and pad modes, and ``build_clip_plan``'s audio
modes. Free of numpy and of the layers, so the parser loads neither.
"""

import math

# 10 * sqrt(2) / ln(10), the dB constant used by most MCD tools
CONVENTIONAL_SCALE = 10.0 * math.sqrt(2.0) / math.log(10.0)

# the factor each PipelineConfig.scale applies to all three MCD values
SCALES = {"plain": 1.0, "conventional": CONVENTIONAL_SCALE}
# "pad" zero-pads the shorter waveform for the plain MCD; "strict" refuses a mismatch
PAD_MODES = ("pad", "strict")
# each audio mode's FFmpeg arguments: the centre channel alone, or all channels averaged
AUDIO_MODES = {"center-channel": ("-af", "pan=mono|c0=FC"), "downmix": ("-ac", "1")}
