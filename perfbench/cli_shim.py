"""Run ``discoh.cli.main`` with spans on, for the traced pass of the cli workload.

Usage: python -X importtime perfbench/cli_shim.py SPANS.npz <discoh arguments>

Records the import of ``discoh.cli``, building the parser, parsing, the
command and every call across discoh's module boundaries, then writes the
spans to SPANS.npz and exits with the command's exit code.
"""

import sys
from time import perf_counter

t_import = perf_counter()
import discoh.cli  # noqa: E402

t_imported = perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add("cli.import", t_import, t_imported, -1)
    cli = sys.modules["discoh.cli"]
    tracer.install()
    for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
        tracer.patch(cli, attr, tracer.wrap(getattr(cli, attr), f"cli.{attr}"))
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")
        return parser

    tracer.patch(cli, "build_parser", tracer.wrap(traced_build_parser, "cli.build_parser"))
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
