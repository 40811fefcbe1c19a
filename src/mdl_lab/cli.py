"""Command line front end.

    mdl-lab list
    mdl-lab describe <experiment>      (its description and knob table)
    mdl-lab run <experiment> [--config FILE] [--seed N] [--horizon N]
            [--samples N] [--out DIR] [--workers N] [--param key=value ...]
    mdl-lab code encode (--string 0110 | --file PATH) [--preset NAME]
            [--config FILE] [--model INDEX]
    mdl-lab code decode --bits BITSTRING [--preset NAME] [--config FILE]

Each experiment's knob table declares the params, --horizon and
--samples it reads; anything else, or a value below its minimum, is a
configuration error.

Exit codes: 0 success; 2 configuration or usage error; 3 an exact
enumeration guard tripped; 4 the run finished but at least one bound row
failed (failing rows are listed).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .coding import code_length_report, decode, encode
from .errors import ConfigError, MalformedCodeError, MdlLabError, TooLargeError
from .experiments import (
    FLAG_KNOBS,
    REGISTRY,
    ExperimentConfig,
    build_class,
    run_experiment,
    write_report,
)
from .model_class import WeightedClass, bernoulli_class, example1_class

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOO_LARGE = 3
EXIT_BOUND_FAILURE = 4

CODE_PRESETS = {
    "bernoulli3": lambda: bernoulli_class(
        [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    ),
    "fair_coin": lambda: bernoulli_class([Fraction(1, 2)]),
    "example1_5": lambda: example1_class(5),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdl-lab",
        description="Two-part MDL prediction laboratory: experiments, bounds, coding.",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list registered experiments")

    describe = sub.add_parser("describe", help="describe one experiment")
    describe.add_argument("experiment")

    run = sub.add_parser("run", help="run an experiment and write its report")
    run.add_argument("experiment")
    run.add_argument("--config", help="JSON config file (flags override it)")
    run.add_argument("--seed", type=int)
    run.add_argument("--horizon", type=int)
    run.add_argument("--samples", type=int)
    run.add_argument(
        "--workers",
        type=int,
        help="worker count, at least 1 (default 1); sampled paths run in order "
        "in one thread for any count, so results are identical",
    )
    run.add_argument("--out", help="output directory (default: runs/<experiment>)")
    run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="experiment-specific parameter override",
    )

    code = sub.add_parser("code", help="two-part encode/decode")
    code_sub = code.add_subparsers(dest="code_command")
    enc = code_sub.add_parser("encode")
    enc.add_argument("--string", help="symbol string, ASCII digits")
    enc.add_argument("--file", help="file holding the symbol string")
    enc.add_argument("--preset", choices=sorted(CODE_PRESETS), default="bernoulli3")
    enc.add_argument("--config", help="JSON class spec file instead of a preset")
    enc.add_argument("--model", type=int, default=None, help="model index (default: two-part choice)")
    dec = code_sub.add_parser("decode")
    dec.add_argument("--bits", required=True, help="codeword as a 0/1 string")
    dec.add_argument("--preset", choices=sorted(CODE_PRESETS), default="bernoulli3")
    dec.add_argument("--config", help="JSON class spec file instead of a preset")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list()
        if args.command == "describe":
            return cmd_describe(args.experiment)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "code":
            return cmd_code(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except TooLargeError as e:
        print(f"enumeration guard: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except MalformedCodeError as e:
        print(f"malformed code: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MdlLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    parser.print_help()
    return EXIT_CONFIG


def cmd_list() -> int:
    for name in REGISTRY:
        print(name)
    return EXIT_OK


def cmd_describe(name: str) -> int:
    entry = REGISTRY.get(name)
    if entry is None:
        print(f"unknown experiment {name!r}", file=sys.stderr)
        return EXIT_CONFIG
    print(entry.name)
    print("  " + entry.description)
    for name, knob in entry.knobs.items():
        flag = f"--{name}" if name in FLAG_KNOBS else f"--param {name}"
        default = "derived" if knob.default is None else knob.default
        print(f"  {flag:22s} default {default!s:>8s}  minimum {knob.minimum}")
    if entry.reads:
        print("  also reads " + ", ".join(sorted(entry.reads)))
    return EXIT_OK


def _read_config_file(path: str) -> dict:
    """The JSON object in a --config file; ConfigError for anything else."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e.strerror or e}") from None
    except ValueError as e:  # malformed JSON or undecodable bytes
        raise ConfigError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object, not {type(data).__name__}")
    return data


def _load_config(args) -> ExperimentConfig:
    data = _read_config_file(args.config) if args.config else {}
    data["experiment"] = args.experiment
    for flag in ("seed", "horizon", "samples", "workers", "out"):
        value = getattr(args, flag)
        if value is not None:
            data[flag] = value
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be a JSON object of KEY: VALUE")
    params = dict(params)
    for kv in args.param:
        if "=" not in kv:
            raise ConfigError(f"--param expects KEY=VALUE, got {kv!r}")
        key, value = kv.split("=", 1)
        params[key] = value
    data["params"] = params
    return ExperimentConfig.from_dict(data)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg)
    out_dir = cfg.out or str(Path("runs") / cfg.experiment)
    write_report(report, out_dir)
    for key, value in report.verdicts.items():
        print(f"{key}: {value}")
    print(f"report written to {out_dir}")
    failing = report.failing_rows()
    if failing:
        print(f"{len(failing)} bound row(s) FAILED:", file=sys.stderr)
        for row in failing:
            print(
                f"  {row['case']} {row['bound_name']} {row['predictor']} "
                f"{row['metric']}: measured {row['measured_exact']} vs "
                f"bound {row['bound_exact']}",
                file=sys.stderr,
            )
        return EXIT_BOUND_FAILURE
    return EXIT_OK


def _code_class(args) -> WeightedClass:
    if args.config:
        return build_class(_read_config_file(args.config))
    return CODE_PRESETS[args.preset]()


def cmd_code(args) -> int:
    if args.code_command == "encode":
        if (args.string is None) == (args.file is None):
            raise ConfigError("encode needs exactly one of --string or --file")
        text = args.string if args.string is not None else Path(args.file).read_text().strip()
        cls = _code_class(args)
        word = cls.word(text)
        index = args.model
        if index is None:
            from .model_class import map_estimator

            index = map_estimator(cls, word).index
        elif not 0 <= index < len(cls):
            raise ConfigError(f"--model must lie in 0..{len(cls) - 1}, got {index}")
        code = encode(cls, index, word)
        print(f"model_index: {code.model_index}")
        print(f"total_bits: {code.total_bits}")
        print(f"bits: {code.bits}")
        print(f"hex: {code.hex()}")
        print("length_report:")
        for row in code_length_report(cls, word):
            total = "-" if row.total_bits is None else str(row.total_bits)
            flag = " <= two-part choice" if row.chosen else ""
            print(
                f"  model {row.model_index}: header {row.header_bits} "
                f"+ length {row.length_bits} + payload "
                f"{'-' if row.payload_bits is None else row.payload_bits} "
                f"= {total}{flag}"
            )
        return EXIT_OK
    if args.code_command == "decode":
        cls = _code_class(args)
        word = decode(cls, args.bits)
        print(cls.alphabet.format(word))
        return EXIT_OK
    raise ConfigError("code needs a subcommand: encode or decode")


if __name__ == "__main__":
    sys.exit(main())
