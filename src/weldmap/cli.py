"""Command line driver.

Runs the full parameterization pipeline on a mesh file and writes the
results to an output directory: an OBJ with the UV coordinates as `vt`
records, a metrics JSON, and (optionally) per-stage boundary-chain CSVs
and SVG snapshots.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, WeldmapError
from .mesh import load_mesh, save_obj_with_uv
from .partition import default_partition, load_labels
from .pipeline import compute_parameterization

SCHEMA_VERSION = 1

log = logging.getLogger("weldmap")

# Fixed label palette so snapshot files are reproducible.
_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)


@dataclass
class PipelineConfig:
    """Validated run configuration; each field is the dest of one CLI flag."""

    input_path: str
    partition: str = "auto:1"  # "auto:N" or a label file path
    mu: str = "zero"  # "zero" or a CSV path
    koebe_passes: int = 0
    qc_correction: bool = True
    area_correct: bool = False
    threads: int = 1
    deterministic: bool = False
    out_dir: str = "."
    snapshots: bool = False

    def validate(self):
        if not os.path.isfile(self.input_path):
            raise ConfigError(
                f"input mesh not found: {self.input_path!r}",
                code="CONFIG_INPUT_NOT_FOUND",
                hint="pass an existing OBJ or OFF file via --input",
            )
        if self.partition.startswith("auto:"):
            try:
                parts = int(self.partition.split(":", 1)[1])
            except ValueError:
                parts = 0
            if parts < 1:
                raise ConfigError(
                    f"bad partition spec {self.partition!r}",
                    code="CONFIG_BAD_PARTITION",
                    hint="use auto:N with N >= 1, or a label file path",
                )
        elif not os.path.isfile(self.partition):
            raise ConfigError(
                f"partition label file not found: {self.partition!r}",
                code="CONFIG_PARTITION_NOT_FOUND",
            )
        if self.mu != "zero" and not os.path.isfile(self.mu):
            raise ConfigError(
                f"Beltrami CSV not found: {self.mu!r}",
                code="CONFIG_BELTRAMI_NOT_FOUND",
                hint="pass --mu zero for a conformal run",
            )
        if self.koebe_passes < 0:
            raise ConfigError("koebe passes must be >= 0", code="CONFIG_BAD_PASSES")
        if self.threads < 1:
            raise ConfigError("thread count must be >= 1", code="CONFIG_BAD_THREADS")


def load_mu_csv(path, n_faces):
    """Read a per-face Beltrami coefficient CSV.

    Accepts rows "face_index,re,im" (any order, missing faces default to 0)
    or plain "re,im" rows, one per face in face order. Blank lines and "#"
    comments are skipped; the first other line is a header when it is not
    numeric.
    """
    rows = []
    header = False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                cells = line.split(",")
                try:
                    vals = [float(c) for c in cells]
                except ValueError:
                    if not rows and not header:
                        header = True
                        continue
                    raise ConfigError(
                        f"bad Beltrami CSV row {lineno}: {line!r}",
                        code="CONFIG_BAD_BELTRAMI",
                    ) from None
                rows.append((lineno, vals))
    except OSError as exc:
        raise ConfigError(
            f"cannot read {path!r}: {exc}", code="CONFIG_BELTRAMI_NOT_FOUND"
        ) from exc
    if not rows:
        raise ConfigError("empty Beltrami CSV", code="CONFIG_BAD_BELTRAMI")
    widths = {len(r) for _, r in rows}
    if widths == {3}:
        mu = np.zeros(n_faces, dtype=np.complex128)
        seen = set()
        for lineno, (idx, re, im) in rows:
            if not idx.is_integer() or idx in seen:
                what = "repeated" if idx in seen else "not an integer"
                raise ConfigError(
                    f"Beltrami CSV line {lineno}: face index {idx:g} is {what}",
                    code="CONFIG_BAD_BELTRAMI",
                )
            i = int(idx)
            if not 0 <= i < n_faces:
                raise ConfigError(
                    f"Beltrami CSV line {lineno}: face index {i} is out of "
                    f"range for {n_faces} faces",
                    code="CONFIG_BAD_BELTRAMI",
                )
            seen.add(idx)
            mu[i] = re + 1j * im
        return mu
    if widths == {2}:
        if len(rows) != n_faces:
            raise ConfigError(
                f"expected {n_faces} Beltrami rows, found {len(rows)}",
                code="CONFIG_BAD_BELTRAMI",
            )
        arr = np.asarray([r for _, r in rows], dtype=np.float64)
        return arr[:, 0] + 1j * arr[:, 1]
    raise ConfigError(
        "Beltrami CSV must have 2 or 3 columns", code="CONFIG_BAD_BELTRAMI"
    )


def emit_snapshot(path, loops):
    """Write one stage snapshot as a deterministic 1024x1024 SVG.

    loops: sequence of (label, complex points). Each loop becomes one closed
    path, colored by submesh label. An empty sequence yields a valid empty
    SVG.
    """
    size = 1024.0
    margin = 32.0
    pts = [np.asarray(p, dtype=np.complex128) for _, p in loops]
    finite = [p[np.isfinite(p)] for p in pts]
    allp = np.concatenate(finite) if finite else np.empty(0, dtype=np.complex128)
    body = []
    if allp.size:
        x0, x1 = float(allp.real.min()), float(allp.real.max())
        y0, y1 = float(allp.imag.min()), float(allp.imag.max())
        span = max(x1 - x0, y1 - y0, 1e-300)
        scale = (size - 2.0 * margin) / span
        for (lab, _), p in zip(loops, pts):
            p = p[np.isfinite(p)]
            if p.size == 0:
                continue
            xs = margin + (p.real - x0) * scale
            ys = size - margin - (p.imag - y0) * scale  # SVG y grows downward
            d = "M " + " L ".join(f"{x:.3f},{y:.3f}" for x, y in zip(xs, ys)) + " Z"
            color = _PALETTE[int(lab) % len(_PALETTE)]
            body.append(
                f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
    svg = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">\n'
        + "\n".join(body)
        + ("\n" if body else "")
        + "</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)


def _dump_stage_csv(path, loops):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label,index,re,im\n")
        for lab, p in loops:
            p = np.asarray(p, dtype=np.complex128)
            for i, z in enumerate(p):
                fh.write(f"{int(lab)},{i},{z.real!r},{z.imag!r}\n")


def run_pipeline(config):
    """Execute one configured run and write all artifacts; returns 0."""
    config.validate()
    mesh = load_mesh(config.input_path)
    if config.partition.startswith("auto:"):
        n = int(config.partition.split(":", 1)[1])
        labels = default_partition(mesh, n)
        if labels.n_parts != n:
            log.info(
                "partition auto:%d gave %d parts (mesh has %d holes)",
                n, labels.n_parts, mesh.n_holes,
            )
    else:
        labels = load_labels(config.partition, mesh.n_faces)
    if config.mu == "zero":
        mu = np.zeros(mesh.n_faces, dtype=np.complex128)
    else:
        mu = load_mu_csv(config.mu, mesh.n_faces)

    result = compute_parameterization(
        mesh,
        labels,
        mu,
        koebe_passes=config.koebe_passes,
        qc=config.qc_correction,
        area_correct=config.area_correct,
        threads=config.threads,
        deterministic=config.deterministic,
        want_snapshots=config.snapshots,
    )

    os.makedirs(config.out_dir, exist_ok=True)
    save_obj_with_uv(
        os.path.join(config.out_dir, "parameterization.obj"), mesh, result.param.uv
    )
    metrics = {"schema_version": SCHEMA_VERSION, **result.report.as_dict()}
    metrics["refine_history"] = result.refine_history
    with open(
        os.path.join(config.out_dir, "metrics.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if config.snapshots:
        for stage, loops in result.snapshots:
            emit_snapshot(
                os.path.join(config.out_dir, f"snapshot_{stage}.svg"), loops
            )
            _dump_stage_csv(
                os.path.join(config.out_dir, f"chains_{stage}.csv"), loops
            )
    log.info(
        "wrote %s (e=%.3g, %d flipped faces)",
        config.out_dir,
        result.report.e_global,
        result.report.flipped_faces,
    )
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="weldmap",
        description=(
            "Global conformal / quasi-conformal parameterization of "
            "multiply-connected triangle meshes onto a circular domain."
        ),
    )
    p.add_argument("--input", dest="input_path", required=True,
                   help="input mesh (OBJ or OFF)")
    p.add_argument(
        "--partition",
        default="auto:1",
        help="per-face label file, or auto:N for the builtin heuristic",
    )
    p.add_argument(
        "--mu",
        default="zero",
        help='per-face Beltrami CSV ("face_index,re,im"), or "zero"',
    )
    p.add_argument("--koebe-passes", type=int, default=0, metavar="N",
                   help="extra hole-circularization refinement passes")
    p.add_argument("--no-qc-correction", dest="qc_correction", action="store_false",
                   help="skip the final quasi-conformal correction")
    p.add_argument("--area-correct", action="store_true",
                   help="apply the Mobius area-distortion correction")
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="workers: all flatten, then one welds while the rest factor")
    p.add_argument("--deterministic", action="store_true",
                   help="omit timings so outputs are byte-reproducible")
    p.add_argument("--out", dest="out_dir", default=".", metavar="DIR",
                   help="output directory")
    p.add_argument("--snapshots", action="store_true",
                   help="write per-stage boundary SVGs and CSVs")
    return p


def main(argv=None):
    level = os.environ.get("WELDMAP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    config = PipelineConfig(**vars(build_parser().parse_args(argv)))
    try:
        return run_pipeline(config)
    except WeldmapError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
