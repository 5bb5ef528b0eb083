"""Canonical blendshape channel names shared by the human and robot rigs.

The channel set follows the Apple ARKit face-tracking convention with the
tongue channel removed, leaving 51 semantic expression units. Rigs built by
this package list their channels in the canonical (alphabetical) order below;
rigs loaded from files may use any order, and coefficient transfer reorders
by name.
"""

from __future__ import annotations

# 51 channels: the ARKit set minus tongueOut, alphabetical.
CANONICAL_NAMES: tuple[str, ...] = (
    "browDownLeft",
    "browDownRight",
    "browInnerUp",
    "browOuterUpLeft",
    "browOuterUpRight",
    "cheekPuff",
    "cheekSquintLeft",
    "cheekSquintRight",
    "eyeBlinkLeft",
    "eyeBlinkRight",
    "eyeLookDownLeft",
    "eyeLookDownRight",
    "eyeLookInLeft",
    "eyeLookInRight",
    "eyeLookOutLeft",
    "eyeLookOutRight",
    "eyeLookUpLeft",
    "eyeLookUpRight",
    "eyeSquintLeft",
    "eyeSquintRight",
    "eyeWideLeft",
    "eyeWideRight",
    "jawForward",
    "jawLeft",
    "jawOpen",
    "jawRight",
    "mouthClose",
    "mouthDimpleLeft",
    "mouthDimpleRight",
    "mouthFrownLeft",
    "mouthFrownRight",
    "mouthFunnel",
    "mouthLeft",
    "mouthLowerDownLeft",
    "mouthLowerDownRight",
    "mouthPressLeft",
    "mouthPressRight",
    "mouthPucker",
    "mouthRight",
    "mouthRollLower",
    "mouthRollUpper",
    "mouthShrugLower",
    "mouthShrugUpper",
    "mouthSmileLeft",
    "mouthSmileRight",
    "mouthStretchLeft",
    "mouthStretchRight",
    "mouthUpperUpLeft",
    "mouthUpperUpRight",
    "noseSneerLeft",
    "noseSneerRight",
)

CHANNEL_COUNT = len(CANONICAL_NAMES)

# Facial regions used for evaluation masks and landmark grouping.
REGIONS: tuple[str, ...] = ("eye", "brow", "nose", "cheek", "mouth", "jaw")


def region_of(name: str) -> str:
    """Map a blendshape channel name onto its facial region: the region
    that prefixes it."""
    for region in REGIONS:
        if name.startswith(region):
            return region
    raise ValueError(f"unknown blendshape channel {name!r}")

