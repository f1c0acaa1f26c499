# %%
# Generating test data and moving it through the on-disk formats.
#
# The toolkit consumes two input files: a binary embedding matrix and a
# JSONL sample manifest whose line order matches the embedding rows. Both
# are produced here from the deterministic synthetic generator.

import tempfile
from pathlib import Path

import numpy as np

from egms import (
    gen_synthetic,
    load_embedding_store,
    load_sample_manifest,
    write_embedding_store,
    write_sample_manifest,
)

workdir = Path(tempfile.mkdtemp(prefix="egms_demo_"))

# %%
# A 500-sample, 8-dimensional mixture of 5 well-separated Gaussian blobs.
# Every sample carries a lognormal perplexity; most also carry a per-token
# NLL sequence consistent with it and a generic difficulty score.

store, metas = gen_synthetic(n=500, dim=8, k_blobs=5, spread=0.5, seed=2024)
print(f"embeddings: {store.count} x {store.dim}")
print(f"first sample: id={metas[0].id} ppl={metas[0].ppl:.3f} score={metas[0].score:+.3f}")
print(f"nll tokens: {len(metas[0].nlls) if metas[0].nlls else 0}")

# %%
# The embedding file is little-endian binary: magic "EGMS", version u16,
# count u64, dim u32, then float32 values row-major. Values survive the
# round trip bit-exactly because the generator rounds through float32.

emb_path = workdir / "embeddings.bin"
write_embedding_store(emb_path, store)
loaded = load_embedding_store(emb_path)
print(f"file size: {emb_path.stat().st_size} bytes (18-byte header + {store.count}x{store.dim}x4)")
print("round trip exact:", np.array_equal(loaded.data, store.data))

# %%
# The sample manifest is one JSON record per line, in embedding-row order.

man_path = workdir / "samples.jsonl"
write_sample_manifest(man_path, metas)
print(man_path.read_text().splitlines()[0][:100], "...")
reloaded = load_sample_manifest(man_path)
print("manifest round trip:", reloaded == metas)

# %%
# Loading is strict: truncated payloads, bad magic bytes, non-finite
# values, and duplicate ids all fail with the offending location named.

bad = workdir / "truncated.bin"
bad.write_bytes(emb_path.read_bytes()[:-8])
try:
    load_embedding_store(bad)
except Exception as exc:
    print("truncated file ->", exc)
