"""A steady training step takes no page faults: glibc keeps its freed heap.

Importing ``simcse_forge.autograd`` raises glibc's dynamic mmap and trim
thresholds (see the statement there), so a step's arrays come from a heap
that stays mapped between steps. Without it, glibc trims the heap top after
each step and the next step faults its whole working set back in: 4,600 to
5,400 minor faults per step at this size under glibc 2.36, against none.

The count is read in a fresh process, since the thresholds are per process
and the test runner's own heap has a history of its own.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STEPS = 4                   # 128 sentences at batch 32, one epoch
MAX_FAULTS_PER_STEP = 256

PROBE = f"""
import random, resource
from simcse_forge import training
from simcse_forge.data import Vocab, tokenize
from simcse_forge.dropout import DropoutPolicy
from simcse_forge.encoder import EncoderConfig, init_params
from simcse_forge.rng import Rng

rng = random.Random(1)
words = "the a dog cat river stone under over quietly bright old new".split()
texts = [" ".join(rng.choice(words) for _ in range(rng.randint(5, 45)))
         for _ in range(128)]
vocab = Vocab.build(texts)
config = EncoderConfig(vocab_size=len(vocab),
                       dropout=DropoutPolicy(kind="standard", p=0.1))
pool = [tokenize(t, vocab, config.max_seq_len) for t in texts]
params = init_params(config, Rng(1))
tc = training.TrainConfig(task="sts", epochs=1, batch_size=32, lr=3e-5,
                          tau=0.05, seed=1)
training.train_unsup_simcse(tc, config, vocab, pool, params)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
training.train_unsup_simcse(tc, config, vocab, pool, params)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the resident heap is glibc's dynamic mmap threshold")
def test_a_training_step_reuses_the_freed_heap_without_faulting():
    # MALLOC_* variables switch glibc's dynamic thresholds off; the test
    # measures the allocator as a plain process gets it
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout.split()[-1])
    assert faults / STEPS < MAX_FAULTS_PER_STEP, f"{faults} minor faults in {STEPS} steps"
