#!/usr/bin/env python3
"""Write the seeded PGM/PPM corpus of the ``image-corpus`` benchmark workload
(``write_corpus`` of ``perfbench/workloads.py``) for ``spd-bench image-bench``:
one subdirectory per class, gray 28 x 28 classes and one larger RGB class.  A
class directory that exists is never overwritten: the script then writes
nothing and stops with one error line.

Example, from the repository root:
    PYTHONPATH=src python3 scripts/make_image_corpus.py corpus --seed 3
    PYTHONPATH=src python3 -m spdprivacy image-bench --images corpus --eps 0.5 --out-csv img.csv
"""

import argparse
from pathlib import Path

from workload_passes import workloads


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    args = parser.parse_args()
    classes = workloads.corpus_classes(args.scale)
    if taken := [args.out_dir / cls.name for cls in classes if (args.out_dir / cls.name).exists()]:
        raise SystemExit(f"error: {taken[0]} exists; a class directory is never overwritten")
    workloads.write_corpus(args.out_dir, args.seed, args.scale)
    print(f"wrote {sum(cls.count for cls in classes)} pgm/ppm files under {args.out_dir}")


if __name__ == "__main__":
    main()
