"""Reference action decoder: `auxtrain.decode_action` as it was before it
read mode-S levels as Python floats. Kept verbatim, so the decoder can be
tested against it for equal values and equal exceptions."""
from slimnav.worldsim import MAX_POWER


def decode_action(mode: str, action, low, high) -> tuple[float, tuple[int, int]]:
    """The (rho, (p_f, p_d)) a mode's action asks for, over its
    `action_bounds` (low, high). Mode C clips rho and keeps MAX_POWER; mode S
    keeps rho = 1 and rounds, then clips, each power level. A NaN rho
    stays NaN, for `SlimMask` to refuse."""
    if mode == "C":
        return min(max(float(action[0]), float(low[0])), float(high[0])), MAX_POWER
    return 1.0, tuple(int(min(max(round(a), lo), hi))
                      for a, lo, hi in zip(action, low, high))
