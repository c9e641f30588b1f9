"""Command-line front end.

Subcommands: sample, recover, lowdeg, itbound, phase, check-concentration.
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

from . import experiments, infotheory, lowdeg, model, recovery, tensor


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _cmd_sample(args) -> int:
    strengths = tuple(args.lam) * args.r if len(args.lam) == 1 else tuple(args.lam)
    spec = model.SignalSpec(
        n=args.n, p=args.p, k=args.k, A=args.A, r=args.r,
        strengths=strengths, mode=args.mode, ell=args.ell,
    )
    inst = model.sample_sstm(spec, args.seed)
    tensor.write_sstf1(inst.observation, args.out)
    model.write_meta_json(args.out + ".meta.json", inst)
    print(f"wrote {args.out} and {args.out}.meta.json")
    return 0


def _cmd_recover(args) -> int:
    if args.ell > 1 and (args.r, args.workers) != (1, 1):
        raise ValueError(f"--ell {args.ell} recovers one general spike on one worker, "
                         f"got --r {args.r} --workers {args.workers}")
    Y = tensor.read_sstf1(args.infile)
    if args.ell > 1:
        recovered, value = recovery.recover_general(Y, args.k, args.t, args.ell, args.seed)
        values = [value]
    else:
        recovered, values = recovery.recover_multi(
            Y, args.k, args.t, args.r, args.seed, args.workers
        )
    doc: dict = {
        "recovered": [sorted(s) for s in recovered],
        "argmax_values": values,
    }
    meta_path = args.infile + ".meta.json"
    truth = model.read_truth_supports(meta_path) if os.path.exists(meta_path) else None
    if truth is not None and len(truth) == len(recovered):
        report = recovery.match_supports(recovered, truth, values)
        doc["matching"] = report.matching
        doc["exact"] = report.exact
        doc["overlap"] = report.overlap
    elif truth is not None:
        doc["truth_mismatch"] = {"truth": len(truth), "recovered": len(recovered)}
    _emit(doc, args.out)
    return 0


def _cmd_lowdeg(args) -> int:
    params = lowdeg.LowDegParams(n=args.n, k=args.k, p=args.p, D=args.D, lam=args.lam)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # the threshold calculators check --eps, so they run before the chi-squared sum
        lower = lowdeg.lower_bound_lambda(args.n, args.k, args.p, args.D, args.eps)
        upper = lowdeg.upper_bound_lambda(args.n, args.k, args.p, args.D, 2 * args.eps)
        doc = lowdeg.chi_squared_exact(params, arithmetic=args.arithmetic).to_json_dict()
    # lower_bound_lambda and chi_squared_exact both warn when D > 2n/p
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"stpca: warning: {message}", file=sys.stderr)
    doc["lower_threshold"] = lower
    doc["upper_thresholds"] = upper.to_json_dict()
    _emit(doc, args.out)
    return 0


def _cmd_itbound(args) -> int:
    doc = dataclasses.asdict(infotheory.it_bound_report(args.n, args.k, args.eps, args.lam))
    if args.oracle:
        doc["covering_number"] = {
            metric: infotheory.covering_number_oracle(args.n, args.k, args.eps, metric)
            for metric in ("l2", "rho")
        }
    _emit(doc, args.out)
    return 0


def _cmd_phase(args) -> int:
    config = experiments.PhaseConfig.from_json_file(args.config)
    count = experiments.run_phase_diagram(config, args.out, args.workers)
    print(f"wrote {count} rows to {args.out}")
    return 0


def _cmd_check_concentration(args) -> int:
    report = experiments.check_concentration(
        args.n, args.p, args.t, args.r, args.gamma, args.trials, args.seed
    )
    _emit(report.to_json_dict(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stpca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ps = sub.add_parser("sample", help="sample a spiked tensor instance to an SSTF1 file")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--lambda", dest="lam", type=float, nargs="+", required=True,
                    help="signal strength(s), one per spike or one shared value")
    ps.add_argument("--r", type=int, default=1, help="number of spikes")
    ps.add_argument("--A", type=float, default=1.0, help="flatness bound")
    ps.add_argument("--mode", choices=model.MODES, default="flat")
    ps.add_argument("--ell", type=int, default=1, help="distinct factors (general mode)")
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=_cmd_sample)

    pr = sub.add_parser("recover", help="recover planted supports from an SSTF1 file")
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--t", type=int, required=True)
    pr.add_argument("--r", type=int, default=1)
    pr.add_argument("--ell", type=_positive_int, default=1)
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--workers", type=_positive_int, default=1)
    pr.add_argument("--out")
    pr.set_defaults(func=_cmd_recover)

    pl = sub.add_parser("lowdeg", help="degree-limited chi-squared mass and thresholds")
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--p", type=int, required=True)
    pl.add_argument("--D", type=int, required=True)
    pl.add_argument("--lambda", dest="lam", type=float, required=True)
    pl.add_argument("--eps", type=float, default=0.25)
    pl.add_argument("--arithmetic", choices=("exact-rational", "log-float"),
                    default="exact-rational")
    pl.add_argument("--out")
    pl.set_defaults(func=_cmd_lowdeg)

    pi = sub.add_parser("itbound", help="information-theoretic thresholds")
    pi.add_argument("--n", type=int, required=True)
    pi.add_argument("--k", type=int, required=True)
    pi.add_argument("--eps", type=float, default=0.5)
    pi.add_argument("--lambda", dest="lam", type=float, default=1.0)
    pi.add_argument("--oracle", action="store_true",
                    help="also run the exact covering-number search (tiny n, k only)")
    pi.add_argument("--out")
    pi.set_defaults(func=_cmd_itbound)

    pp = sub.add_parser("phase", help="run a phase-diagram sweep to CSV")
    pp.add_argument("--config", required=True, help="PhaseConfig JSON file")
    pp.add_argument("--out", required=True)
    pp.add_argument("--workers", type=_positive_int, default=1)
    pp.set_defaults(func=_cmd_phase)

    pc = sub.add_parser("check-concentration",
                        help="empirical max of the noise form vs the theory bound")
    pc.add_argument("--n", type=_positive_int, required=True)
    pc.add_argument("--p", type=_positive_int, required=True)
    pc.add_argument("--t", type=_positive_int, required=True)
    pc.add_argument("--r", type=int, default=1)
    pc.add_argument("--gamma", type=float, default=0.05)
    pc.add_argument("--trials", type=int, default=200)
    pc.add_argument("--seed", type=int, required=True)
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_check_concentration)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"stpca: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
