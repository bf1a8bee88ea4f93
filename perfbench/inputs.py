"""Seeded input generation for the benchmark.

Everything here is a pure function of the seed: the same seed gives
byte-identical sources and session lists. The program under test only
ever sees the files these functions write.
"""

import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
TEMPLATES = HERE / "minicu"

# The 8 built-in workloads and the two platforms whose unified-memory
# behaviour differs most: `pascal` migrates pages, `power9` maps remotely.
WORKLOADS = ["lulesh", "sw", "pathfinder", "backprop", "gaussian", "lud", "nn", "cfd"]
PLATFORMS = ["pascal", "power9"]


def fill(template, **sizes):
    """Instantiate a MiniCU template, replacing each `@KEY@` placeholder."""
    text = (TEMPLATES / f"{template}.cu").read_text()
    for key, value in sizes.items():
        text = text.replace(f"@{key}@", str(value))
    left = re.findall(r"@[A-Z]+@", text)
    if left:
        raise ValueError(f"{template}: unfilled placeholders {left}")
    return text


def conformance_program(rng, n):
    """A small generated kernel program in the style of the conformance
    corpus (`tests/corpus/valid`), but freeing its heap so `check` is
    clean. Seeds change offsets, operators and constants, not the number
    of statements, so every seed's programs do about the same work. Every index is reduced modulo `n`, every value modulo a small
    prime, so no access leaves its allocation and nothing overflows."""

    def offset():
        return rng.randint(1, 9)

    kernels = []
    for k in range(2):
        body = []
        for _ in range(3):
            op = rng.choice(["+", "-"])
            body.append(
                f"        a[((i + {offset()}) % n)] = (a[((i + {offset()}) % n)] {op} "
                f"b[((i + {offset()}) % n)] + {rng.randint(1, 9)}) % 1009;"
            )
        kernels.append(
            f"__global__ void k{k}(int* a, int* b, int n) {{\n"
            "    int i = (threadIdx.x + (blockIdx.x * blockDim.x));\n"
            "    if ((i < n)) {\n" + "\n".join(body) + "\n    }\n}\n"
        )
    mul = rng.randint(2, 9)
    shift = rng.randint(1, 7)
    return (
        "\n".join(kernels)
        + "\nint main() {\n"
        + "    int* p0;\n"
        + "    int* p1;\n"
        + f"    cudaMallocManaged((void**)(&p0), ({n} * sizeof(int)));\n"
        + f"    cudaMallocManaged((void**)(&p1), ({n} * sizeof(int)));\n"
        + f"    for (int i = 0; (i < {n}); i++) {{\n"
        + f"        p0[i] = (({mul} * i) % 1009);\n"
        + f"        p1[i] = ((i + {shift}) % 1009);\n"
        + "    }\n"
        + f"    k0<<<1, {n}>>>(p0, p1, {n});\n"
        + "    cudaDeviceSynchronize();\n"
        + f"    for (int i = 0; (i < {n}); i++) {{\n"
        + f"        p1[((i + {shift}) % {n})] += 1;\n"
        + "    }\n"
        + f"    k1<<<1, {n}>>>(p1, p0, {n});\n"
        + "    cudaDeviceSynchronize();\n"
        + "    int acc = 0;\n"
        + f"    for (int i = 0; (i < {n}); i++) {{\n"
        + "        acc = ((acc + p0[i] + p1[i]) % 1000003);\n"
        + "    }\n"
        + '    printf("acc=%d\\n", acc);\n'
        + "    cudaFree(p0);\n"
        + "    cudaFree(p1);\n"
        + "    return (acc % 251);\n"
        + "}\n"
    )


def jitter(rng, base, step, spread):
    """`base` plus a seeded multiple of `step`, within +-`spread` steps:
    seeds move sizes by a few percent, never the order of magnitude."""
    return base + step * rng.randint(-spread, spread)


def minicu_sources(seed):
    """The `minicu` workload's programs: `(name, source, check_exit)`,
    where `check_exit` is what `xplacer check` must return (the example
    programs leak on purpose and the buggy one reads uninitialized data)."""
    rng = random.Random(f"minicu/{seed}")
    out = []
    cols, rows = jitter(rng, 768, 8, 1), 31
    out.append((f"pathfinder_{cols}x{rows}", fill("pathfinder", COLS=cols, ROWS=rows), 1))
    n, m = jitter(rng, 64, 1, 1), 48
    out.append((f"smith_waterman_{n}x{m}", fill("smith_waterman", N=n, M=m), 1))
    n = jitter(rng, 8192, 64, 1)
    out.append((f"alternating_{n}", fill("alternating", N=n, STEPS=4), 1))
    n = jitter(rng, 16384, 128, 1)
    out.append((f"unnecessary_transfer_{n}", fill("unnecessary_transfer", N=n), 1))
    iters = scalar_iters(seed)
    mul = rng.randint(3, 97)
    out.append((f"scalar_loop_{iters}", fill("scalar_loop", ITERS=iters, MUL=mul), 0))
    for k in range(3):
        n = jitter(rng, 2048, 16, 1)
        out.append((f"gen{k}_{n}", conformance_program(rng, n), 0))
    n = jitter(rng, 4096, 32, 1)
    out.append((f"uninit_sum_{n}", fill("uninit_sum", N=n), 1))
    return out


def scalar_iters(seed):
    """Iteration count of the scalar-loop program for `seed`."""
    return jitter(random.Random(f"scalar/{seed}"), 400_000, 4_000, 1)


def optimize_program(seed):
    """The `optimize` workload's program target: a scaled Smith-Waterman."""
    rng = random.Random(f"optimize/{seed}")
    n, m = jitter(rng, 80, 1, 1), 52
    return f"sw_opt_{n}x{m}", fill("smith_waterman", N=n, M=m)
