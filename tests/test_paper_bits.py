import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paper_bits.py"


def test_paper_scale_poem_loss_and_gradient_bits_are_pinned():
    # The gradient digest holds at one BLAS thread only (README,
    # Determinism).
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, str(TOOL)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "2c5a78dd695ee6ac", "9.034002121313254", "8.885605158620399",
        "e4abe3b52b6df12a", "f1fedc4efe4f228c"]
