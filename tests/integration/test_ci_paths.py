"""Every script the CI workflow runs must exist in the tree.

Deleting a benchmark or smoke script without its CI step would leave a
step that fails only on the CI host; this catches it in tier-1.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
SCRIPT_RE = re.compile(r"\b(?:benchmarks|perfbench)/[\w./-]+\.py\b")


def test_every_script_named_in_ci_exists():
    scripts = sorted(set(SCRIPT_RE.findall(WORKFLOW.read_text())))
    assert scripts, "the regex found no script path in ci.yml"
    missing = [path for path in scripts if not (ROOT / path).is_file()]
    assert missing == []
