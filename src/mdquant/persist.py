"""Versioned JSON persistence for designed codecs.

A codec file holds the design only: the quantizers, the index assignment,
the channels, the design correlation and the design metadata.  The decoders
build the tables they read from it (:func:`mdquant.codec.build_decoder_tables`).
Floats are serialized with Python's shortest round-trip repr, so every matrix
reloads bit-exactly.  Key order is fixed at construction, which makes a
re-run with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .channel import DescriptionChannel
from .codec import CodecBundle, IndexAssignment
from .quantizer import MAX_QUANTIZER_LEVELS, ScalarQuantizer

FORMAT_VERSION = 2


class CodecFormatError(Exception):
    """Raised when a codec file's format version is incompatible."""


def _quantizer_dict(q: ScalarQuantizer):
    return {
        "codewords": q.codewords.tolist(),
        "thresholds": q.thresholds.tolist(),
        "cell_probs": q.cell_probs.tolist(),
    }


def _quantizer_from(d) -> ScalarQuantizer:
    return ScalarQuantizer(
        np.array(d["codewords"]), np.array(d["thresholds"]), np.array(d["cell_probs"])
    )


def _channel_dict(ch: DescriptionChannel):
    return {
        "kind": ch.kind,
        "loss_prob": ch.loss_prob,
        "index_count": ch.index_count,
        "bit_error_rate": ch.bit_error_rate,
        "noise_psd": ch.noise_psd,
    }


def bundle_to_dict(bundle: CodecBundle) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "quantizer": _quantizer_dict(bundle.quantizer),
        "si_quantizer": _quantizer_dict(bundle.si_quantizer),
        "ia": {"table": bundle.ia.table.tolist(), "hard": bundle.ia.hard},
        "channels": [_channel_dict(ch) for ch in bundle.channels],
        "design_rho": bundle.design_rho,
        "metadata": bundle.metadata,
    }


def bundle_from_dict(data: dict) -> CodecBundle:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise CodecFormatError(
            f"codec format version {version!r} is not supported (expected {FORMAT_VERSION}); "
            "re-run design to write the codec in this version"
        )
    try:
        return _bundle_from_fields(data)
    except KeyError as exc:
        raise ValueError(f"codec file lacks field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed codec file: {exc}") from exc


def _bundle_from_fields(data: dict) -> CodecBundle:
    quantizer = _quantizer_from(data["quantizer"])
    si_quantizer = _quantizer_from(data["si_quantizer"])
    channels = tuple(
        DescriptionChannel(
            kind=c["kind"],
            loss_prob=c["loss_prob"],
            index_count=c["index_count"],
            bit_error_rate=c["bit_error_rate"],
            noise_psd=c["noise_psd"],
        )
        for c in data["channels"]
    )
    # The decoders build (levels, SI levels, tuples) tables of these sizes.
    for name, size in (
        ("quantizer size", quantizer.size),
        ("SI quantizer size", si_quantizer.size),
        ("index tuple count", math.prod(ch.index_count for ch in channels)),
    ):
        if size > MAX_QUANTIZER_LEVELS:
            raise ValueError(
                f"codec {name} {size} exceeds the largest quantizer size {MAX_QUANTIZER_LEVELS}"
            )
    return CodecBundle(
        quantizer=quantizer,
        si_quantizer=si_quantizer,
        ia=IndexAssignment(np.array(data["ia"]["table"]), hard=data["ia"]["hard"]),
        channels=channels,
        design_rho=data["design_rho"],
        metadata=data["metadata"],
    )


def save_codec(bundle: CodecBundle, path) -> None:
    Path(path).write_text(json.dumps(bundle_to_dict(bundle)), encoding="utf-8")


def load_codec(path) -> CodecBundle:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError) as exc:
        raise ValueError(f"unreadable codec file: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("codec file must contain a JSON object")
    return bundle_from_dict(data)
