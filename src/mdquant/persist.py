"""Versioned JSON persistence for designed codecs.

Floats are serialized with Python's shortest round-trip repr, so every matrix
reloads bit-exactly.  Key order is fixed at construction, which makes a
re-run with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channel import DescriptionChannel
from .codec import CodecBundle, DecoderTables, IndexAssignment
from .gaussian import CorrelationLadder
from .quantizer import ScalarQuantizer

FORMAT_VERSION = 1


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
    t = bundle.tables
    return {
        "format_version": FORMAT_VERSION,
        "quantizer": _quantizer_dict(bundle.quantizer),
        "si_quantizer": _quantizer_dict(bundle.si_quantizer),
        "ia": {"table": bundle.ia.table.tolist(), "hard": bundle.ia.hard},
        "channels": [_channel_dict(ch) for ch in bundle.channels],
        "design_rho": bundle.design_rho,
        "ladder": bundle.ladder.levels.tolist(),
        "tables": {
            "rho_values": t.rho_values.tolist(),
            "si_probs": t.si_probs.tolist(),
            "prior": t.prior.tolist(),
            "codebook": t.codebook.tolist(),
            "prior_nosi": t.prior_nosi.tolist(),
            "codebook_nosi": t.codebook_nosi.tolist(),
        },
        "metadata": bundle.metadata,
    }


def bundle_from_dict(data: dict) -> CodecBundle:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise CodecFormatError(
            f"codec format version {version!r} is not supported (expected {FORMAT_VERSION})"
        )
    try:
        return _bundle_from_fields(data)
    except KeyError as exc:
        raise ValueError(f"codec file lacks field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed codec file: {exc}") from exc


def _bundle_from_fields(data: dict) -> CodecBundle:
    t = data["tables"]
    tables = DecoderTables(
        rho_values=np.array(t["rho_values"]),
        si_probs=np.array(t["si_probs"]),
        prior=np.array(t["prior"]),
        codebook=np.array(t["codebook"]),
        prior_nosi=np.array(t["prior_nosi"]),
        codebook_nosi=np.array(t["codebook_nosi"]),
    )
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
    return CodecBundle(
        quantizer=_quantizer_from(data["quantizer"]),
        si_quantizer=_quantizer_from(data["si_quantizer"]),
        ia=IndexAssignment(np.array(data["ia"]["table"]), hard=data["ia"]["hard"]),
        channels=channels,
        design_rho=data["design_rho"],
        ladder=CorrelationLadder(np.array(data["ladder"])),
        tables=tables,
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
