"""The benchmark's workloads: fixed CLI job lists, parameterised by seed.

Each workload is a list of `python -m walshlab` invocations that run back to
back, one process per job (a closed loop with one client, as a researcher
runs the README commands).  The workload seed is passed to every job as the
CLI's `--seed`.  Only two jobs read it beyond recording it in the manifest:
the random-mask `scan` and the random-coefficient `bilinear`; those are
marked `seeded` and are checked against an independent oracle at every
seed.

The `tiny` size runs the same commands at small lambda for the smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("spectrum", "lemma-scan", "mollifier")

# reference outputs ship for these seeds; the second was not used while the
# benchmark was written
HELD_OUT_SEED = 7919
REFERENCE_SEEDS = (0, HELD_OUT_SEED)

SIZES = {
    "full": {
        "table_lam": 24, "scan_lo": 18, "scan_hi": 22,
        "lemma_lo": 12, "lemma_hi": 16, "lemma_count": 64, "all_lam": 14,
        "l5_lam": 14, "split": ("0xf000", 16, 2, 4), "bil": (7, 14, 3),
    },
    "tiny": {
        "table_lam": 10, "scan_lo": 6, "scan_hi": 8,
        "lemma_lo": 6, "lemma_hi": 8, "lemma_count": 8, "all_lam": 6,
        "l5_lam": 8, "split": ("0xf0", 8, 2, 2), "bil": (3, 5, 1),
    },
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    args: arguments after `python -m walshlab`, `--seed` included.
    out: file name the job writes with `--out` (None: manifest on stdout).
    seeded: the output depends on the seed beyond the recorded seed fields.
    oracle: name of the independent check in `verify.ORACLES`, if any.
    """

    args: tuple
    out: str | None = None
    seeded: bool = False
    oracle: str | None = None

    def argv(self, workdir: Path) -> list[str]:
        """Concrete arguments, with the output file placed in workdir."""
        extra = ["--out", str(workdir / self.out)] if self.out else []
        return list(self.args) + extra

    @property
    def label(self) -> str:
        """The command without its seed, the same at every seed."""
        return " ".join(self.args[:-2])


def _job(text: str, seed: int, **kw) -> Job:
    return Job(tuple(text.split()) + ("--seed", str(seed)), **kw)


def workload_jobs(name: str, seed: int, size: str = "full") -> list[Job]:
    """The job list of one workload at one seed."""
    z = SIZES[size]
    if name == "spectrum":
        lam = z["table_lam"]
        return [
            _job(f"sieve --lambda {lam} --kind moebius", seed, out="moebius.bin"),
            _job(f"sieve --lambda {lam} --kind von_mangoldt", seed,
                 out="von_mangoldt.bin"),
            _job(f"spectrum --lambda {lam} --kind moebius", seed),
            _job(f"spectrum --lambda {lam} --kind liouville", seed),
            _job(f"theorem-scan --lambda-min {z['scan_lo']} "
                 f"--lambda-max {z['scan_hi']}", seed),
        ]
    if name == "lemma-scan":
        lam = z["all_lam"]
        # lemma 5 is left out so that no seed pulls in synthesis
        return [
            _job(f"scan --lambda-min {z['lemma_lo']} --lambda-max {z['lemma_hi']} "
                 f"--masks random --count {z['lemma_count']} --lemmas 1,2,3,4,6",
                 seed, seeded=True, oracle="scan"),
            _job(f"lemma-check --lemma 3 --lambda {lam} --masks all", seed),
            _job(f"lemma-check --lemma 2 --lambda {lam} --masks all", seed,
                 out="lemma2.csv"),
        ]
    if name == "mollifier":
        mask, lam, mu, h = z["split"]
        bmu, bnu, rho = z["bil"]
        return [
            _job(f"lemma-check --lemma 5 --lambda {z['l5_lam']} --masks structured",
                 seed),
            _job(f"split --mask {mask} --lambda {lam} --mu {mu} --h {h}", seed),
            _job(f"bilinear --mask 0x6 --mu {bmu} --nu {bnu} --rho {rho} "
                 "--coef random", seed, seeded=True, oracle="bilinear"),
            _job(f"carry-rate --mask 0x6 --mu {bmu} --nu {bnu} --rho {rho}", seed),
        ]
    raise ValueError(f"unknown workload {name!r}")
