"""Replay the CLI limit cases of ``tests/data/cli_limits.txt``.

Each entry is one ``sumways`` command line and what it must do: its exit
code, its exact stdout, a piece of its stderr, and the wall time and
address space it may take (the file's header explains the layout). Each
runs in a child process, the time limit as a ``subprocess`` timeout and
the address-space cap as ``RLIMIT_AS``, set in that child alone. One line
is printed per entry that does not do what it says; an ``xfail`` entry is
a known failure, and fails the replay if it passes.

    python tests/cli_limits.py                    # python -m sumways.cli on src/
    python tests/cli_limits.py --command sumways  # the installed console script

Standard library only. ``tests/test_cli_limits.py`` replays the same file
under pytest, one test per entry.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import resource
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE / "data" / "cli_limits.txt"
SOURCE = (sys.executable, "-m", "sumways.cli")
# children run at once; each replay thread only waits on its own child
JOBS = 2
# field name in the corpus: (attribute of Entry, how its value is read)
FIELDS = {
    "exit": ("exit", int),
    "time": ("seconds", lambda value: float(value.removesuffix(" s"))),
    "memory": ("megabytes", lambda value: int(value.removesuffix(" MB"))),
    "any-stdout": ("stdout", lambda reason: None),
    "stderr": ("stderr", str),
    "xfail": ("xfail", str),
}


@dataclass
class Entry:
    line: str  # the arguments after ``sumways``
    exit: int | None = None
    seconds: float | None = None
    megabytes: int | None = None
    stdout: list[str] | None = field(default_factory=list)  # None: not compared
    stderr: str = ""
    xfail: str = ""


def load() -> list[Entry]:
    """The entries of the corpus, in file order."""
    entries: list[Entry] = []
    for number, text in enumerate(CORPUS.read_text(encoding="utf-8").splitlines(), 1):
        key, _, value = text.partition(" ")
        if not text.strip() or key.startswith("#"):
            continue
        if key == "$":
            entries.append(Entry(value))
        elif not entries:
            raise ValueError("%s:%d: a field before the first entry" % (CORPUS, number))
        elif key == "stdout" and entries[-1].stdout is not None:
            entries[-1].stdout.append(value)
        elif key in FIELDS:
            name, read = FIELDS[key]
            setattr(entries[-1], name, read(value))
        else:
            raise ValueError("%s:%d: cannot read %r" % (CORPUS, number, text))
    for entry in entries:
        if None in (entry.exit, entry.seconds, entry.megabytes):
            raise ValueError("%s: %r needs exit, time and memory" % (CORPUS, entry.line))
    return entries


def replay(entry: Entry, command: tuple[str, ...] = SOURCE) -> str | None:
    """Run one entry; what it did wrong, or None when it did what it says."""
    cap = entry.megabytes << 20
    env = dict(os.environ)
    if command == SOURCE:
        paths = [str(HERE.parent / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    try:
        done = subprocess.run(
            [*command, *shlex.split(entry.line)], capture_output=True, text=True,
            env=env, timeout=entry.seconds,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
    except subprocess.TimeoutExpired:
        return "ran past %g s" % entry.seconds
    wrong = []
    if done.returncode != entry.exit:
        wrong.append("exit %d, not %d" % (done.returncode, entry.exit))
    if entry.stdout is not None and done.stdout != "".join(s + "\n" for s in entry.stdout):
        wrong.append("stdout %r" % done.stdout[-200:])
    if not (entry.stderr in done.stderr if entry.stderr else done.stderr == ""):
        wrong.append("stderr ends %r" % done.stderr.strip().rpartition("\n")[2])
    return "; ".join(wrong) or None


def replay_all(entries: list[Entry], command: tuple[str, ...] = SOURCE) -> list[str | None]:
    """What each entry did wrong, or None, in order; JOBS children at a time."""
    with ThreadPoolExecutor(JOBS) as pool:
        return list(pool.map(replay, entries, [command] * len(entries)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--command", help="the command that runs sumways, split as a"
                        " shell splits it (default: python -m sumways.cli on src/)")
    args = parser.parse_args()
    command = tuple(shlex.split(args.command)) if args.command else SOURCE
    entries = load()
    failed = known = 0
    for entry, wrong in zip(entries, replay_all(entries, command)):
        if entry.xfail:
            if wrong:
                known += 1
                continue
            wrong = "passed, but is marked xfail: %s" % entry.xfail
        if wrong:
            failed += 1
            print("FAIL sumways %s: %s" % (entry.line, wrong))
    print("%d entries: %d failed, %d known failures" % (len(entries), failed, known))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
