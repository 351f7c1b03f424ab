"""Frozen reference copy of slimnav, the benchmark's yardstick.

`errors`, `worldsim`, `slimnet`, `pathoracle`, `distill` and `auxtrain`
are byte-for-byte copies of `src/slimnav/` at the commit that defined the
benchmark (sha256 digests in `../manifest.json`); the CLI is left out. They
are never edited: the benchmark runs every operation on this copy as well
as on the program under test, side by side, and reports the program's
times relative to the copy's. See `slimbench/README.md`.
"""
