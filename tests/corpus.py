"""The committed verification corpus: seeded instances from
``instance_factory`` alone, and what ``verify`` and the joint point
spectrum give on each.

``tests/data/corpus.json`` records, per instance, its fingerprint, each
check's verdict, margin and tolerance, and the sigma_jp lists of T and T*.
``tests/test_corpus.py`` compares a fresh run against it, so a change to
the oracle that moves a verdict, a margin or sigma_jp shows as a test
failure. Regenerate the file, at a commit whose results are to be the
reference, with

    python tests/corpus.py --write
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # pytest puts src on the path itself
    sys.path.insert(0, str(ROOT / "src"))

from condexp import (  # noqa: E402
    adjoint,
    as_wce,
    fingerprint,
    joint_point_spectrum,
    product_space_example,
    proportional_instance,
    random_instance,
    symmetric_interval_example,
    to_matrix,
)
from condexp.verification import verify_instance  # noqa: E402

PATH = ROOT / "tests" / "data" / "corpus.json"

#: seeds of each random kind at each size
SEEDS = range(13)


def instances() -> list:
    """(name, instance) of every corpus instance, in a fixed order: random,
    real and proportional at (64, 8), (12, 4) and (320, 4); the product
    examples (4, 80) and (4, 20) and the symmetric one (64); random
    (2000, 250); and random (40, 40), whose atoms are single points."""
    out = []
    for points, atoms in ((64, 8), (12, 4), (320, 4)):
        for seed in SEEDS:
            size = f"{points}_{atoms}_{seed}"
            out.append((f"random_{size}", random_instance(seed, points, atoms)))
            out.append((f"real_{size}", random_instance(seed, points, atoms, False)))
            out.append((f"proportional_{size}", proportional_instance(seed, points, atoms)))
    out.append(("product_4_80", product_space_example(4, 80)))
    out.append(("product_4_20", product_space_example(4, 20)))
    out.append(("symmetric_64", symmetric_interval_example(64)))
    for seed in range(5):
        out.append((f"random_2000_250_{seed}", random_instance(seed, 2000, 250)))
        out.append((f"random_40_40_{seed}", random_instance(seed, 40, 40)))
    return out


def _values(values) -> list:
    return [[complex(z).real, complex(z).imag] for z in values]


def record(instance) -> dict:
    """What the corpus keeps of one instance."""
    T = to_matrix(as_wce(instance))
    return {
        "fingerprint": fingerprint(instance),
        "checks": [[c.name, bool(c.passed), float(c.margin), float(c.tolerance)]
                   for c in verify_instance(instance)],
        "sigma_jp": _values(joint_point_spectrum(T)),
        "sigma_jp_adjoint": _values(joint_point_spectrum(adjoint(T))),
    }


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    corpus = {name: record(instance) for name, instance in instances()}
    PATH.parent.mkdir(exist_ok=True)
    lines = ",\n".join(f"{json.dumps(name)}: {json.dumps(r)}" for name, r in corpus.items())
    PATH.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    print(f"{len(corpus)} instances, {sum(len(r['checks']) for r in corpus.values())} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
