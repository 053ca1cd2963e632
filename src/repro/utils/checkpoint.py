"""Checkpoint IO: save / load model parameters as ``.npz`` archives.

The detector fine-tuning and the scale-regressor training stages (Fig. 2 of the
paper) are separate; checkpoints let benchmarks reuse a trained detector across
experiments instead of retraining for every table.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Mapping

import numpy as np

__all__ = ["save_params", "load_params", "save_json", "load_json"]


def save_params(path: str | Path, named_params: Mapping[str, np.ndarray]) -> Path:
    """Save a mapping of parameter name → array to ``path`` (``.npz``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {name: np.asarray(value) for name, value in named_params.items()}
    np.savez(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    """Load a parameter mapping previously written by :func:`save_params`.

    Bytes that are not such an archive (truncated, not a zip, an object
    array that would need pickle) raise a ``ValueError`` naming ``path``;
    nothing is returned from a partly readable file.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a bare .npy array, not an .npz archive")
        with archive:
            return {name: archive[name] for name in archive.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a parameter checkpoint: {exc}") from exc


def save_json(path: str | Path, payload: object) -> Path:
    """Write ``payload`` as pretty-printed JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_jsonify))
    return path


def load_json(path: str | Path) -> object:
    """Read a JSON file written by :func:`save_json`."""
    return json.loads(Path(path).read_text())


def _jsonify(obj: object) -> object:
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj)!r} to JSON")
