"""Command-line front end.

Subcommands: kernel, filter, eval, perturb, preprocess, gradcheck.
Data lands on stdout (or the output files); logs and warnings go to
stderr.  Exit codes: 0 success, 2 configuration problem, 3 file or OS
problem (out of memory included), 4 data-dependent numeric failure.

numpy must not be imported until thread pinning is done, so every
handler imports the package's numeric modules lazily.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import logging
import os
import shutil
import sys
import tempfile

from .errors import ConfigError, DimensionError, OocsError, UndefinedDistanceError, UnsupportedFormatError

log = logging.getLogger("oocs3d")
# log prefix for each exit code an error class carries
_FAILURE_KIND = {2: "configuration error", 3: "file error", 4: "numeric failure"}


def _apply_threads(threads: int | None) -> None:
    """Pin BLAS/OpenMP pools via env vars; only takes effect before numpy is imported."""
    if threads is None:
        return
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    if "numpy" in sys.modules:
        log.warning("--threads=%d has no effect: numpy is already imported "
                    "and its thread pools are sized", threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


def _read_any(path: str):
    from . import volio

    ext = os.path.splitext(path)[1].lower()
    if ext in (".mha", ".mhd"):
        return volio.read_mha(path)
    if ext == ".json":
        return volio.read_raw_json(path)
    raise UnsupportedFormatError(f"unrecognized input extension on {path!r} (use .mha, .mhd, or .json)")


def _writer(path: str):
    """The volio writer for `path`'s extension, read off the module at each call so a wrapper put there applies.

    Commands get every output's writer before they read their input.
    """
    from . import volio

    ext = os.path.splitext(path)[1].lower()
    if ext == ".mha":
        return volio.write_mha
    if ext == ".json":
        return volio.write_raw_json
    raise UnsupportedFormatError(f"unrecognized output extension on {path!r} (use .mha or .json)")


def _write_all(outputs) -> None:
    """Write each (writer, obj, path); no output reaches its path unless every write succeeded.

    Each is written under its own name into a temporary directory beside
    its path, so a sidecar's raw_file still names its payload.  After the
    last write, every old file at an output's name is unlinked, so a
    directory there fails before any output lands, and then the new files
    are renamed into place.  Unlinking first also spares a write-back:
    ext4 (auto_da_alloc) writes a file to disk at once when it is renamed
    over another, and not when its name is new.
    """
    staged = []
    try:
        for write, obj, path in outputs:
            staged.append(tempfile.mkdtemp(prefix=".oocs3d-", dir=os.path.dirname(os.path.abspath(path))))
            write(obj, os.path.join(staged[-1], os.path.basename(path)))
        moves = [(os.path.join(tmp, name), os.path.join(os.path.dirname(tmp), name))
                 for tmp in staged for name in os.listdir(tmp)]
        for _, dest in moves:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(dest)
        for src, dest in moves:
            os.rename(src, dest)
    finally:
        for tmp in staged:
            shutil.rmtree(tmp, ignore_errors=True)


def _read_mask(path: str):
    from .tensor import BinaryMask

    obj = _read_any(path)
    if not isinstance(obj, BinaryMask):
        raise ConfigError(f"{path!r} does not hold a binary mask")
    return obj


def _read_volume(path: str):
    from .tensor import BinaryMask, Volume

    obj = _read_any(path)
    if isinstance(obj, BinaryMask):
        return Volume(obj.data.astype(float), obj.spacing)
    return obj


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    """Write `text` to stdout, or as UTF-8 to the file `out`."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _cmd_kernel(args) -> int:
    from .kernels import KernelSpec, kernel_to_csv, kernel_to_json, make_kernel

    spec = KernelSpec(k=args.k, gamma=args.gamma, c=args.c, dims=args.dims)
    kern = make_kernel(spec, args.polarity)
    text = kernel_to_json(kern) + "\n" if args.format == "json" else kernel_to_csv(kern)
    _emit(text, args.out)
    return 0


def _cmd_filter(args) -> int:
    from .kernels import KernelSpec, make_kernel
    from .tensor import ConvWeights, FeatureMap, Volume, _seal, conv3d_forward

    spec = KernelSpec(k=args.k, gamma=args.gamma, c=args.c, dims=3)
    write_on, write_off = _writer(args.out_on), _writer(args.out_off)
    v = _read_volume(args.image)
    w = ConvWeights(make_kernel(spec, "on").weights[None, None])
    on = conv3d_forward(FeatureMap(v.data[None]), w, padding=args.padding)
    # the Off kernel is the exact negation of the On kernel, so is its response
    _write_all([(write_on, Volume(on.data[0], v.spacing), args.out_on),
                (write_off, Volume(_seal(-on.data[0]), v.spacing), args.out_off)])
    return 0


def _cmd_eval(args) -> int:
    from .metrics import dice, hausdorff_mm

    case = args.case if args.case is not None else os.path.splitext(os.path.basename(args.pred))[0]
    pm = _read_mask(args.pred)
    rm = _read_mask(args.ref)
    dsc = dice(pm, rm)
    try:
        hsd = repr(hausdorff_mm(pm, rm))
    except UndefinedDistanceError:
        log.warning("case %s: empty mask, Hausdorff distance undefined", case)
        hsd = "undefined"
    _emit(_csv_text([["case", "dsc", "hsd_mm"], [case, repr(dsc), hsd]]), args.csv_out)
    return 0


def _cmd_perturb(args) -> int:
    from .perturb import gaussian_blur, gaussian_noise, motion_artifact

    write = _writer(args.out)
    v = _read_volume(args.image)
    if args.kind == "gaussian_blur":
        out = gaussian_blur(v, args.sigma)
    elif args.kind == "gaussian_noise":
        out = gaussian_noise(v, args.sigma, args.seed)
    else:
        out = motion_artifact(v, args.n, args.max_rot, args.max_trans, args.seed)
    _write_all([(write, out, args.out)])
    return 0


def _cmd_preprocess(args) -> int:
    from . import preprocess as pp

    if (args.mask is None) != (args.mask_out is None):
        raise ConfigError("--mask and --mask-out must be given together")
    if args.spacing is None and args.crop is None and not args.zscore:
        raise ConfigError("preprocess needs at least one of --spacing, --zscore, --crop")
    write_image = _writer(args.out)
    write_mask = _writer(args.mask_out) if args.mask_out is not None else None
    v = _read_volume(args.image)
    m = _read_mask(args.mask) if args.mask is not None else None
    if m is not None and (m.shape, m.spacing) != (v.shape, v.spacing):
        raise DimensionError(f"mask {args.mask!r} has shape {m.shape} and spacing {m.spacing}, "
                             f"but the image has shape {v.shape} and spacing {v.spacing}")
    if args.spacing is not None:
        spacing = tuple(args.spacing)
        v = pp.resample(v, spacing)
        if m is not None:
            m = pp.resample_mask(m, spacing)
    if args.zscore:
        v = pp.zscore(v)
    if args.crop is not None:
        v = pp.crop_or_pad(v, args.crop)
        if m is not None:
            m = pp.crop_or_pad_mask(m, args.crop)
    masks = [] if m is None else [(write_mask, m, args.mask_out)]
    _write_all([(write_image, v, args.out)] + masks)
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_gradcheck_grid

    rows = run_gradcheck_grid(
        seeds=range(args.seed, args.seed + args.seeds),
        h=args.h,
        n_dirs=args.n_dirs,
        spatial=tuple(args.spatial),
        tol=args.tol,
    )
    table = [["k_oocs", "c_in", "c_out", "seed", "max_rel_err", "redraws", "status"]]
    for r in rows:
        table.append([
            str(r.k_oocs), str(r.c_in), str(r.c_out), str(r.seed),
            f"{r.max_rel_err:.3e}", str(r.redraws), "pass" if r.passed else "FAIL",
        ])
    _emit(_csv_text(table), args.out)
    failed = sum(1 for r in rows if not r.passed)
    if failed:
        log.error("%d of %d gradient checks failed", failed, len(rows))
        return 4
    log.info("all %d gradient checks passed", len(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oocs3d", description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=None,
                        help="pin BLAS/OpenMP thread pools and size the strip pool "
                             "(default: OMP_NUM_THREADS, else library default)")
    parser.add_argument("--seed", type=int, default=0, help="base seed for stochastic subcommands")
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"), help="stderr log verbosity")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="build a balanced center-surround kernel")
    p.add_argument("--k", type=int, required=True, help="kernel size (odd, >= 3)")
    p.add_argument("--gamma", type=float, default=2.0 / 3.0, help="center/surround radius ratio")
    p.add_argument("--c", type=float, default=3.0, help="balance constant")
    p.add_argument("--dims", type=int, default=3, choices=(2, 3))
    p.add_argument("--polarity", default="on", choices=("on", "off"))
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("filter", help="write the On and Off responses of a volume")
    p.add_argument("--in", dest="image", required=True, metavar="IMAGE")
    p.add_argument("--out-on", required=True, help="output file for the On response")
    p.add_argument("--out-off", required=True, help="output file for the Off response")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma", type=float, default=2.0 / 3.0)
    p.add_argument("--c", type=float, default=3.0)
    p.add_argument("--padding", default="same_zero", choices=("same_zero", "valid"))
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("eval", help="Dice and Hausdorff metrics for a mask pair")
    p.add_argument("--pred", required=True, help="predicted mask file")
    p.add_argument("--ref", required=True, help="reference mask file")
    p.add_argument("--case", default=None, help="case label (default: --pred basename)")
    p.add_argument("--csv-out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("perturb", help="apply a robustness perturbation")
    p.add_argument("--in", dest="image", required=True, metavar="IMAGE")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", required=True, choices=("gaussian_blur", "gaussian_noise", "motion"))
    p.add_argument("--sigma", type=float, default=1.0,
                   help="blur width in voxels / noise standard deviation")
    p.add_argument("--n", type=int, default=1, help="motion transform count")
    p.add_argument("--max-rot", type=float, default=10.0, help="motion rotation bound, degrees")
    p.add_argument("--max-trans", type=float, default=10.0, help="motion translation bound, mm")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("preprocess", help="resample / normalize / reshape a volume")
    p.add_argument("--in", dest="image", required=True, metavar="IMAGE")
    p.add_argument("--out", required=True)
    p.add_argument("--mask", default=None, help="aligned mask carried through the same geometry")
    p.add_argument("--mask-out", default=None)
    p.add_argument("--spacing", type=float, nargs=3, default=None, metavar=("SZ", "SY", "SX"),
                   help="resample to this target spacing (mm, depth-major order)")
    p.add_argument("--zscore", action="store_true")
    p.add_argument("--crop", type=int, nargs=3, default=None, metavar=("D", "H", "W"),
                   help="center-crop or zero-pad to this shape")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("gradcheck", help="finite-difference check of the block gradients")
    p.add_argument("--seeds", type=int, default=2, help="number of seeds, starting at --seed")
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--n-dirs", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--spatial", type=int, nargs=3, default=(6, 6, 6), metavar=("D", "H", "W"))
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=args.log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        _apply_threads(args.threads)
        import numpy as np

        # a non-finite result is refused by the containers (exit 4), so
        # numpy's floating-point warnings would only repeat it, with source paths
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except OocsError as exc:
        log.error("%s: %s", _FAILURE_KIND[exc.exit_code], exc)
        return exc.exit_code
    except OSError as exc:
        log.error("file error: %s", exc)
        return 3
    except MemoryError as exc:
        log.error("out of memory: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
