"""The four benchmark workloads: a fixed configuration, one op, and exact counts.

Op i of a run takes its seed from the phase-sweep derivation
``experiments.trial_seed(workload_seed, 0, i)``, so one workload seed always
gives the same inputs. Every op checks its own output and returns True only
when it is correct. All recovery runs at ``workers=1``, the library default.
A workload whose op is interpreter_bound has its op times scaled by the
benchmark's host probe, a pure-Python loop.
"""

from __future__ import annotations

import itertools
import os
import warnings
from fractions import Fraction

from stpca import experiments, infotheory, lowdeg, model, recovery, tensor

# chi-squared exact vs log-float agreement required of every `limits` op
CHI2_REL_TOL = 1e-12


def op_seed(workload_seed: int, i: int) -> int:
    return experiments.trial_seed(workload_seed, 0, i)


def sstf1_bytes(n: int, p: int) -> int:
    """Size of an SSTF1 file: 5 magic + 1 version + 8 header + 8 n^p payload."""
    return 14 + 8 * n**p


def disjoint_tuple_count(n: int, t: int, p: int, ell: int) -> int:
    """Tuples `recover_general` scores: over every composition of p into ell
    parts, ordered disjoint U_t candidates, sign-pruned per factor parity."""
    total = 0
    for cuts in itertools.combinations(range(1, p), ell - 1):
        bounds = (0, *cuts, p)
        count = 1
        for q, (a, b) in enumerate(zip(bounds, bounds[1:])):
            count *= recovery.candidate_count(n - q * t, t, 0, b - a)
        total += count
    return total


class Scan:
    """Single spike; the op is dominated by the t=3 U_t scan."""

    name = "scan"
    interpreter_bound = True
    n, p, k, t = 40, 3, 4, 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        lam, _ = recovery.threshold_lambda(self.n, self.k, self.p, self.t)
        self.spec = model.SignalSpec(n=self.n, p=self.p, k=self.k, strengths=(lam,))

    def op(self, i: int) -> bool:
        s = op_seed(self.seed, i)
        inst = model.sample_sstm(self.spec, s)
        support, value = recovery.recover_single(inst.observation, self.k, self.t, s)
        return recovery.match_supports([support], inst.truth_supports(), [value]).all_exact

    def counts(self) -> dict[str, int]:
        return {
            "recovery.argmax_over_Ut.candidates": recovery.candidate_count(
                self.n, self.t, 0, self.p
            )
        }


class Dense:
    """Two spikes in a 64 MB tensor: sampling, SSTF1 I/O and copies dominate."""

    name = "dense"
    # numpy and file I/O over 64 MB; the interpreter probe does not track it
    interpreter_bound = False
    n, p, k, r, t = 200, 3, 5, 2, 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        lam, _ = recovery.threshold_lambda(self.n, self.k, self.p, self.t, self.r)
        self.spec = model.SignalSpec(
            n=self.n, p=self.p, k=self.k, r=self.r, strengths=(lam,) * self.r
        )
        self.path = os.path.join(workdir, "dense.sstf")

    def op(self, i: int) -> bool:
        s = op_seed(self.seed, i)
        inst = model.sample_sstm(self.spec, s)
        tensor.write_sstf1(inst.observation, self.path)
        Y = tensor.read_sstf1(self.path)
        recovered, values = recovery.recover_multi(Y, self.k, self.t, self.r, s)
        return recovery.match_supports(recovered, inst.truth_supports(), values).all_exact

    def counts(self) -> dict[str, int]:
        candidates = sum(
            recovery.candidate_count(self.n, self.t, q * self.k, self.p) for q in range(self.r)
        )
        return {
            "recovery.argmax_over_Ut.candidates": candidates,
            "tensor.write_sstf1.bytes": sstf1_bytes(self.n, self.p),
        }


class General:
    """One general spike; the op is dominated by the composite-family search."""

    name = "general"
    interpreter_bound = True
    n, p, k, ell, t = 12, 3, 2, 2, 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.lam, _ = recovery.threshold_lambda_general(self.n, self.k, self.p, self.t, self.ell)

    def op(self, i: int) -> bool:
        s = op_seed(self.seed, i)
        inst = model.sample_general_instance(self.n, self.p, self.k, self.ell, self.lam, s)
        supports, value = recovery.recover_general(inst.observation, self.k, self.t, self.ell, s)
        return recovery.match_supports(supports, inst.truth_supports(), [value]).all_exact

    def counts(self) -> dict[str, int]:
        return {
            "recovery.recover_general.tuples": disjoint_tuple_count(
                self.n, self.t, self.p, self.ell
            )
        }


class Limits:
    """Computational and statistical limits: exact rational chi-squared with a
    cold counting cache, its log-float cross-check, and the threshold and
    information-theoretic reports. The inputs are fixed, so the seed is unused."""

    name = "limits"
    interpreter_bound = True
    n, k, p, D, eps = 2000, 40, 4, 60, 0.25
    cover = (4, 2, 1.2, "rho")

    def __init__(self, seed: int, workdir: str):
        self.params = lowdeg.LowDegParams(n=self.n, k=self.k, p=self.p, D=self.D, lam=1.0)
        # cache entries after a cold exact evaluation; every op must repeat them
        self.entries: int | None = None

    def op(self, i: int) -> bool:
        # CLI users pay the cold counting cache in every process
        lowdeg.even_all_count.cache_clear()
        exact = lowdeg.chi_squared_exact(self.params)
        entries = lowdeg.even_all_count.cache_info().currsize
        if self.entries is None:
            self.entries = entries
        approx = lowdeg.chi_squared_exact(self.params, arithmetic="log-float")
        lowdeg.lower_bound_lambda(self.n, self.k, self.p, self.D, self.eps)
        lowdeg.upper_bound_lambda(self.n, self.k, self.p, self.D, 2 * self.eps)
        infotheory.it_bound_report(self.n, self.k)
        infotheory.covering_number_oracle(*self.cover)
        reference = float(exact.total)
        agree = abs(approx.total - reference) <= CHI2_REL_TOL * abs(reference)
        return agree and entries == self.entries

    def counts(self) -> dict[str, int | None]:
        # counted by the program during the ops already run, not computed
        return {"lowdeg.even_all_count.entries": self.entries}


WORKLOADS = {w.name: w for w in (Scan, Dense, General, Limits)}


def oracle_check() -> bool:
    """chi_squared_exact equals the brute-force multiset oracle on a tiny instance."""
    params = lowdeg.LowDegParams(n=2, k=1, p=2, D=3, lam=1.0)
    with warnings.catch_warnings():
        # D=3 exceeds 2n/p here on purpose; the oracle covers the capped range
        warnings.simplefilter("ignore", UserWarning)
        exact = lowdeg.chi_squared_exact(params).total
    return isinstance(exact, Fraction) and exact == lowdeg.chi_squared_oracle(params)
