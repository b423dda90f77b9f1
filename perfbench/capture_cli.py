"""Record the expected output of every command in the CLI corpus.

Runs each command of ``cli_corpus.json`` once, untraced, and stores its
exit code and the length and SHA-256 of its standard output back into the
file.  Standard error is not recorded, so error messages may improve
without touching the corpus.  Run it only on a commit whose outputs are
known to be right:

    python3 perfbench/capture_cli.py
"""

import hashlib
import json

from workloads import CORPUS_FILE, load_corpus, run_cli


def main() -> int:
    corpus = load_corpus()
    for entry in corpus:
        code, out, _, _ = run_cli(entry["argv"])
        entry["exit"] = code
        entry["stdout_bytes"] = len(out)
        entry["stdout_sha256"] = hashlib.sha256(out).hexdigest()
        print(f"{entry['name']}: exit {code}, {len(out)} bytes")
    lines = ",\n".join(" " + json.dumps(entry) for entry in corpus)
    CORPUS_FILE.write_text("[\n" + lines + "\n]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
