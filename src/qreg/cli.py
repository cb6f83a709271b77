"""Command line front end.

    qreg train           --config exp.ini [--mode M] [--noise S]
    qreg noise-sweep     --config exp.ini
    qreg stability-sweep --config exp.ini
    qreg multitask       --config exp.ini

Common flags: --out DIR overrides [experiment] output_dir, --seeds a,b,c
overrides the seed list, --quiet silences progress lines. Exit codes: 0 on
success, 2 for configuration or I/O problems and any other QregError that
reaches the command line (unknown keys name the offending key; unreadable
configs and unwritable output directories report the OS error), 3 when at
least one training run failed (summaries still cover the rest), and 128 +
the signal number when a signal interrupted the command: 130 for Ctrl-C or
`kill -INT` (SIGINT), 143 for SIGTERM. An interrupted command writes one
`interrupted` line on stderr and no traceback, stops every job process it
started, and, interrupted while its jobs run, writes no file. main handles
SIGTERM as it handles SIGINT only while it runs, and then restores the
handler it found; run in another thread than the main one, it leaves both
signals to the main thread.

--seeds is read as experiment.seeds is, by qreg.config.read_value. It, and
the --noise and --mode of train as its one noise level and mode, enter the
ExperimentConfig through dataclasses.replace, so the dataclasses check them as
they check the INI keys (see qreg.config): a bad value exits 2, naming its
key, before any output directory exists.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from dataclasses import replace

from .config import load_config, read_value
from .errors import QregError
from .experiments import cmd_multitask, cmd_noise_sweep, cmd_stability_sweep, cmd_train


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qreg",
        description="Train and compare regularizers against label noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", default=None, help="output directory (default: [experiment] output_dir)")
        p.add_argument("--seeds", default=None, help="comma-separated seed override")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p_train = sub.add_parser("train", help="train one mode across the configured seeds")
    common(p_train)
    p_train.add_argument("--mode", default=None, help="regularizer mode (default: first configured)")
    p_train.add_argument("--noise", type=float, default=0.0, help="training label noise fraction")

    common(sub.add_parser("noise-sweep", help="modes x noise levels x seeds, with per-mode gains"))
    common(sub.add_parser("stability-sweep", help="hyperparameter grids per regularizer"))
    common(sub.add_parser("multitask", help="regularizer table on the multi-task dataset"))
    return parser


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signum)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # SIGTERM interrupts as Ctrl-C does, with a KeyboardInterrupt that carries
    # its number; only the main thread may set a handler, and only it gets one
    handles = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _interrupt) if handles else None
    try:
        cfg = load_config(args.config)
        if args.seeds is not None:
            cfg = replace(cfg, seeds=read_value(args.seeds, cfg.seeds, "experiment.seeds"))
        out_dir = args.out if args.out is not None else cfg.output_dir
        if args.command == "train":
            return cmd_train(cfg, out_dir, args.quiet, mode=args.mode, noise=args.noise)
        if args.command == "noise-sweep":
            return cmd_noise_sweep(cfg, out_dir, args.quiet)
        if args.command == "stability-sweep":
            return cmd_stability_sweep(cfg, out_dir, args.quiet)
        return cmd_multitask(cfg, out_dir, args.quiet)
    except (QregError, OSError) as e:
        # any error the package raises on purpose (QregError), or an unwritable --out
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as e:
        # a command interrupted while its jobs run has written no file
        print("interrupted", file=sys.stderr)
        return 128 + (e.args[0] if e.args else signal.SIGINT)
    finally:
        if handles:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
