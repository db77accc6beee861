"""Command-line front end: ingest -> transform -> scalogram/persist.

Subcommands: transform, scalogram, bench, auc, synth, scan.  Exit codes:
0 success, 1 runtime/validation error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .bench import bench_env, bench_single, reports_to_jsonl
from .errors import InvalidParameter, InvalidSpec, IoFailure, WavehopError
from .metrics import LabeledScores, auc_roc
from .scalogram import (
    MAG_MODES,
    magnitude,
    read_matrix_bin,
    render,
    write_csv,
    write_matrix_bin,
    write_pgm,
)
from .signal_io import SignalBuffer, SynthSpec, read_wav, synthesize, write_wav
from .wavelet import (
    MorletParams,
    cwth_decimate,
    cwth_strided,
    make_scale_grid,
    plan_for,
)

_SPEC_HELP = 'synth spec like "sine:frequency=1000,amplitude=0.5" or "white_noise:seed=7"'


def parse_synth_spec(text: str, length: int, rate: float) -> SynthSpec:
    """Parse "kind:key=value,key=value" into a SynthSpec."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "noise":
        kind = "white_noise"
    fields = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise InvalidSpec(f"expected key=value in synth spec, got {item!r}")
            fields[key.strip()] = value.strip()
    kwargs = {}
    numeric = {
        "position": int,
        "frequency": float,
        "amplitude": float,
        "f0": float,
        "f1": float,
        "seed": int,
    }
    for key, value in fields.items():
        if key not in numeric:
            raise InvalidSpec(f"unknown synth field {key!r}")
        try:
            kwargs[key] = numeric[key](value)
        except ValueError as exc:
            raise InvalidSpec(f"bad value for {key}: {value!r}") from exc
    return SynthSpec(kind=kind, length_samples=length, sample_rate=rate, **kwargs)


def _load_input(value: str, length: int, rate: float) -> SignalBuffer:
    if value.lower().endswith(".wav"):
        return read_wav(value)
    return synthesize(parse_synth_spec(value, length, rate))


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scales", type=int, default=64, help="number of scales (default 64)")
    parser.add_argument("--fmin", type=float, default=20.0, help="lowest analyzed frequency, Hz")
    parser.add_argument("--fmax", type=float, default=None,
                        help="highest analyzed frequency, Hz (default 0.45 * rate)")
    parser.add_argument("--wavelet-b", type=float, default=1.5, help="wavelet bandwidth")
    parser.add_argument("--wavelet-c", type=float, default=1.0, help="wavelet center frequency")


def _add_transform_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("strided", "decimate", "full"), default="strided")
    parser.add_argument("--hop", type=_positive_int, default=128,
                        help="translation stride (default 128)")
    parser.add_argument("--anti-alias", action="store_true",
                        help="low-pass filter before decimation (decimate mode only)")
    parser.add_argument("--mag", choices=MAG_MODES, default="abs",
                        help="magnitude mode for CSV/PGM output")
    _add_grid_flags(parser)


def _grid(args, rate: float):
    """The wavelet and the scale grid the flags ask for, at ``rate``."""
    params = MorletParams(center_frequency=args.wavelet_c, bandwidth=args.wavelet_b)
    fmax = args.fmax if args.fmax is not None else 0.45 * rate
    return params, make_scale_grid(args.fmin, fmax, args.scales, rate, params)


def _transform(signal: SignalBuffer, args):
    """The transform the flags ask for: its matrix, its plan and the (n, hop) the plan ran at.

    ``full`` mode is the strided transform at hop 1, as ``cwt_fft`` is;
    ``decimate`` mode runs it at hop 1 on the decimated signal, with the
    grid at the decimated rate.
    """
    if args.mode == "decimate":
        params, grid = _grid(args, signal.sample_rate / args.hop)
        matrix = cwth_decimate(signal, grid, params, args.hop, args.anti_alias)
        return matrix, plan_for(params, grid), (matrix.columns, 1)
    params, grid = _grid(args, signal.sample_rate)
    hop = args.hop if args.mode == "strided" else 1
    return cwth_strided(signal, grid, params, hop), plan_for(params, grid), (len(signal), hop)


def _write_outputs(matrix, mag: str, out, csv=None, pgm=None) -> None:
    """The coefficient file at ``out``, and the magnitude CSV and PGM where a path is given."""
    write_matrix_bin(matrix, out)
    if csv:
        write_csv(magnitude(matrix, mag), csv)
    if pgm:
        write_pgm(render(magnitude(matrix, mag)), pgm)


def _cmd_transform(args) -> int:
    signal = _load_input(args.input, args.length, args.rate)
    matrix, plan, (n, hop) = _transform(signal, args)
    _write_outputs(matrix, args.mag, args.out, args.csv, args.pgm)
    if args.explain:
        # one JSON line per scale row of the transform as it ran: its route and predicted seconds
        text = "".join(json.dumps(record) + "\n" for record in plan.explain(n, hop))
        try:
            Path(args.explain).write_text(text)
        except OSError as exc:
            raise IoFailure(f"cannot write {args.explain}: {exc}") from exc
    return 0


def _cmd_scalogram(args) -> int:
    matrix = read_matrix_bin(args.input)
    image = render(magnitude(matrix, args.mag), flip_vertical=not args.no_flip)
    write_pgm(image, args.out)
    return 0


def _cmd_synth(args) -> int:
    signal = synthesize(parse_synth_spec(args.spec, args.length, args.rate))
    write_wav(signal, args.out, encoding=args.encoding)
    return 0


def _cmd_bench(args) -> int:
    params, grid = _grid(args, args.rate)
    # written with the first cell's lines, so a run refused before any cell prints nothing
    head = json.dumps({"env": bench_env(args.threads)}) + "\n"
    for length in args.length:
        signal = synthesize(SynthSpec("white_noise", length, args.rate, seed=args.seed))
        for hop in args.hop:
            reports = bench_single(
                signal, grid, params, hop, args.reps,
                include_decimate=args.include_decimate,
                include_dwt=args.include_dwt,
                threads=args.threads,
            )
            sys.stdout.write(head + reports_to_jsonl(reports))
            head = ""
            sys.stdout.flush()
    return 0


def _cmd_auc(args) -> int:
    scores = []
    labels = []
    try:
        text = Path(args.input).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {args.input}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        score_part, _, label_part = line.partition(",")
        try:
            scores.append(float(score_part))
            labels.append(int(label_part))
        except ValueError as exc:
            raise InvalidParameter(f"bad score,label line {line!r}: {exc}") from exc
    print(f"{auc_roc(LabeledScores(scores, labels)):.6f}")
    return 0


def _cmd_scan(args) -> int:
    in_dir = Path(args.input_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wavs = sorted(p for p in in_dir.glob("*.wav"))
    if not wavs:
        print(f"error: no .wav files in {in_dir}", file=sys.stderr)
        return 1

    def process(path: Path):
        """Transform one file; returns the error that failed it, or None."""
        try:
            matrix, _, _ = _transform(read_wav(path), args)
            _write_outputs(matrix, args.mag, out_dir / f"{path.stem}.scg1",
                           pgm=out_dir / f"{path.stem}.pgm" if args.pgm else None)
        except (WavehopError, OSError, MemoryError) as exc:
            return exc
        return None

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            failures = list(pool.map(process, wavs))
    else:
        failures = [process(path) for path in wavs]

    for path, exc in zip(wavs, failures):  # report in input order, whole lines only
        if exc is not None:
            print(f"failed {path.name}: {exc}", file=sys.stderr)
        else:
            print(f"ok {path.name}")
    return 1 if any(exc is not None for exc in failures) else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_ints(text: str) -> list[int]:
    """A comma-separated list of integers >= 1."""
    try:
        return [_positive_int(item) for item in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected integers >= 1 separated by commas, got {text!r}") from exc


def _env_threads(parser: argparse.ArgumentParser) -> int:
    """Thread count from the THREADS env var, under the same rule as --threads."""
    env = os.environ.get("THREADS", "")
    if not env:
        return 1
    try:
        return _positive_int(env)
    except (ValueError, argparse.ArgumentTypeError):
        parser.error(f"THREADS: must be an integer >= 1, got {env!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavehop",
        description="Hop-size wavelet feature extraction and benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="WAV or synth spec -> coefficient file")
    p.add_argument("input", help=f"path to a .wav file, or {_SPEC_HELP}")
    p.add_argument("--out", required=True, help="output .scg1 path")
    p.add_argument("--csv", default=None, help="also write a magnitude CSV here")
    p.add_argument("--pgm", default=None, help="also write a rendered PGM here")
    p.add_argument("--explain", default=None,
                   help="also write each scale row's route and predicted seconds here (JSON lines)")
    p.add_argument("--length", type=int, default=160_000, help="synth input length")
    p.add_argument("--rate", type=float, default=16_000.0, help="synth input rate, Hz")
    _add_transform_flags(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("scalogram", help="coefficient file -> PGM image")
    p.add_argument("input", help="input .scg1 path")
    p.add_argument("--out", required=True, help="output .pgm path")
    p.add_argument("--mag", choices=MAG_MODES, default="abs")
    p.add_argument("--no-flip", action="store_true", help="keep matrix row order in the image")
    p.set_defaults(func=_cmd_scalogram)

    p = sub.add_parser("bench", help="time full vs hopped transforms, JSON lines on stdout "
                                     "(the environment first)")
    p.add_argument("--length", type=_positive_ints, default=[160_000],
                   help="signal length, or comma-separated lengths to sweep")
    p.add_argument("--rate", type=float, default=16_000.0)
    p.add_argument("--hop", type=_positive_ints, default=[128],
                   help="hop, or comma-separated hops to sweep at each length")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-decimate", action="store_true")
    p.add_argument("--include-dwt", action="store_true")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="rows computed concurrently (default THREADS env or 1)")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("auc", help="score,label CSV -> AUC-ROC on stdout")
    p.add_argument("input")
    p.set_defaults(func=_cmd_auc)

    p = sub.add_parser("synth", help="synth spec -> WAV file")
    p.add_argument("spec", help=_SPEC_HELP)
    p.add_argument("--out", required=True)
    p.add_argument("--length", type=int, default=160_000)
    p.add_argument("--rate", type=float, default=16_000.0)
    p.add_argument("--encoding", choices=("pcm16", "float32"), default="pcm16")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("scan", help="transform every WAV in a directory")
    p.add_argument("input_dir")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pgm", action="store_true", help="also write a PGM per file")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="files processed concurrently (default THREADS env or 1)")
    _add_transform_flags(p)
    p.set_defaults(func=_cmd_scan)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", 0) is None:
            args.threads = _env_threads(parser)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except WavehopError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size flag too large for this host's memory
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
