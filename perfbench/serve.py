"""Start an ``assured`` server process for the benchmark.

Calls ``assured.cli.main`` with the argv after ``--``, the same argv the
harness uses. With ``--trace-out`` the span wrappers are installed first and
the spans, plus the repository's archive size, are written there when the
server stops; without it the program runs unmodified.

    python3 perfbench/serve.py [--trace-out FILE] -- repo serve --dir D --listen 127.0.0.1:0
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: serve.py [--trace-out FILE] -- <assured argv>", file=sys.stderr)
        return 2
    argv = argv[1:]
    from assured import cli

    if trace_out is None:
        return cli.main(argv)

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    servers = []
    make_repo_server = cli.make_repo_server

    def capture(*args, **kwargs):
        server = make_repo_server(*args, **kwargs)
        servers.append(server)
        return server

    cli.make_repo_server = capture
    code = cli.main(argv)
    counters = {}
    for server in servers:
        archive = server.port_impl.state.archive
        counters["repository.archive.entries"] = len(archive)
        counters["repository.archive.bytes"] = sum(len(blob) for entry in archive for blob in entry.values())
    pid = os.getpid()
    spans.write_jsonl(trace_out, [span + [pid] for span in tracer.spans], counters)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
