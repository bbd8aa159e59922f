"""Cold-start probe: import ndstab from ./src, then load and validate every
spec named (one path a line) in the file given as the only argument.

run.py times this script from process start to exit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from ndstab import SpecError, load_spec, validate  # noqa: E402

for line in Path(sys.argv[1]).read_text().splitlines():
    try:
        validate(load_spec(line))
    except SpecError:
        pass  # the malformed share: rejected while loading, as the CLI does
