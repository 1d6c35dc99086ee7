"""Set-up work of one benchmark run, in a fresh interpreter.

    python3 probe_setup.py <src dir> <file listing one spec path per line>

Imports kriegerlab from the given source tree, then loads, parses,
converts (factor data), normalizes and validates every listed spec.  The
benchmark times this whole process from start to exit as ``setup_s``.
"""

import sys


def main(src_dir, list_file):
    sys.path.insert(0, src_dir)
    from kriegerlab import FactorSpec, factor_to_scheme, load_spec, normalize, validate

    with open(list_file, encoding="utf-8") as fh:
        paths = [line.strip() for line in fh if line.strip()]
    for path in paths:
        spec = load_spec(path)
        if isinstance(spec, FactorSpec):
            spec = factor_to_scheme(spec)
        validate(normalize(spec).spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
