"""Command-line front end.

Subcommands: kernel, filter, eval, perturb, preprocess, gradcheck.
Data lands on stdout (or the output files); logs and warnings go to
stderr.  Exit codes: 0 success, 2 configuration problem, 3 file or OS
problem, 4 data-dependent numeric failure.

numpy must not be imported until thread pinning is done, so every
handler imports the package's numeric modules lazily.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys

from .errors import (
    ConfigError,
    CorruptFileError,
    DegenerateKernelError,
    DimensionError,
    DomainError,
    NormalizationError,
    OocsError,
    RangeError,
    ResampleError,
    UndefinedDistanceError,
    UnsupportedFormatError,
    VolumeIoError,
)

log = logging.getLogger("oocs3d")


def _apply_threads(threads: int | None) -> None:
    """Pin BLAS/OpenMP pools via env vars; only takes effect before numpy is imported."""
    if threads is None:
        env = os.environ.get("OOCS_THREADS")
        if env is None:
            return
        try:
            threads = int(env)
        except ValueError as exc:
            raise ConfigError(f"OOCS_THREADS must be an integer, got {env!r}") from exc
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    if "numpy" in sys.modules:
        log.warning("--threads/OOCS_THREADS=%d has no effect: numpy is already imported "
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


def _write_any(obj, path: str) -> None:
    from . import volio

    ext = os.path.splitext(path)[1].lower()
    if ext == ".mha":
        volio.write_mha(obj, path)
    elif ext == ".json":
        volio.write_raw_json(obj, path)
    else:
        raise UnsupportedFormatError(f"unrecognized output extension on {path!r} (use .mha or .json)")


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


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as f:
            f.write(text)


def _emit_csv(rows, out: str | None) -> None:
    if out is None:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        with open(out, "w", newline="", encoding="ascii") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)


def _cmd_kernel(args) -> int:
    from .kernels import KernelSpec, kernel_to_csv, kernel_to_json, make_kernel

    spec = KernelSpec(k=args.k, gamma=args.gamma, c=args.c, dims=args.dims)
    kern = make_kernel(spec, args.polarity)
    text = kernel_to_json(kern) + "\n" if args.format == "json" else kernel_to_csv(kern)
    _emit_text(text, args.out)
    return 0


def _cmd_filter(args) -> int:
    from .kernels import KernelSpec, make_kernel
    from .tensor import ConvWeights, FeatureMap, conv3d_forward

    spec = KernelSpec(k=args.k, gamma=args.gamma, c=args.c, dims=3)
    v = _read_volume(args.image)
    x = FeatureMap.from_volume(v)
    for polarity, out_path in (("on", args.out_on), ("off", args.out_off)):
        kern = make_kernel(spec, polarity)
        w = ConvWeights(kern.weights[None, None])
        response = conv3d_forward(x, w, padding=args.padding)
        _write_any(response.to_volume(v.spacing), out_path)
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
    _emit_csv([["case", "dsc", "hsd_mm"], [case, repr(dsc), hsd]], args.csv_out)
    return 0


def _cmd_perturb(args) -> int:
    from .perturb import PerturbSpec, apply

    spec = PerturbSpec(
        kind=args.kind,
        sigma=args.sigma,
        n_transforms=args.n,
        max_rot_deg=args.max_rot,
        max_trans_mm=args.max_trans,
        seed=args.seed,
    )
    v = _read_volume(args.image)
    _write_any(apply(v, spec), args.out)
    return 0


def _cmd_preprocess(args) -> int:
    from . import preprocess as pp

    if (args.mask is None) != (args.mask_out is None):
        raise ConfigError("--mask and --mask-out must be given together")
    if args.spacing is None and args.crop is None and not args.zscore:
        raise ConfigError("preprocess needs at least one of --spacing, --zscore, --crop")
    v = _read_volume(args.image)
    m = _read_mask(args.mask) if args.mask is not None else None
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
    _write_any(v, args.out)
    if m is not None:
        _write_any(m, args.mask_out)
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
    _emit_csv(table, args.out)
    failed = sum(1 for r in rows if not r.passed)
    if failed:
        log.error("%d of %d gradient checks failed", failed, len(rows))
        return 4
    log.info("all %d gradient checks passed", len(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oocs3d", description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=None,
                        help="pin BLAS/OpenMP thread pools (default: OOCS_THREADS env var, else library default)")
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
        return args.func(args)
    except (DegenerateKernelError, NormalizationError, ResampleError,
            UndefinedDistanceError, RangeError) as exc:
        log.error("numeric failure: %s", exc)
        return 4
    except (UnsupportedFormatError, CorruptFileError, VolumeIoError, OSError) as exc:
        log.error("file error: %s", exc)
        return 3
    except (ConfigError, DimensionError, DomainError, OocsError) as exc:
        log.error("configuration error: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
