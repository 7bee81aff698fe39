"""Set-up probe, run in a fresh interpreter: import magbern.cli, then run
each warm-up argv (a JSON list of lists, argument 1) once.  Exits with the
first non-zero CLI exit code."""

import json
import sys


def main() -> int:
    argvs = json.loads(sys.argv[1])
    import magbern.cli

    for argv in argvs:
        code = magbern.cli.main(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
