"""Extra workloads written in Mini (not part of the paper's suite).

The paper evaluated seven SPEC'95 integer benchmarks; these additional
kernels are provided for users exploring beyond that set, and they
double as end-to-end exercises of the bundled compiler: they are
written in the Mini language and compiled to the ISA at load time.

* ``dct`` -- an 8x8 integer discrete-cosine-transform sweep (the inner
  kernel of ijpeg-style image compression): multiply-heavy with
  regular access patterns and high ILP.
* ``qsort`` -- repeated in-place quicksort of a shuffled array:
  recursive calls, data-dependent branches, partition loops.
"""

from __future__ import annotations

from repro.isa import Program, Trace
from repro.workloads.registry import build_source, get_workload

#: Names of the extra (non-paper) workloads.
EXTRA_WORKLOAD_NAMES: tuple[str, ...] = ("dct", "qsort")

_DCT = """
# 8x8 integer DCT applied across a 32x32 image, repeated forever
array image[1024];
array coeff[64];
array output[1024];

func main() {
    setup();
    while (1) { sweep(); }
    return 0;
}

func setup() {
    var i;
    i = 0;
    while (i < 1024) { image[i] = (i * 31 + 7) % 256; i = i + 1; }
    i = 0;
    while (i < 64) { coeff[i] = (i * 13 + 5) % 16 - 8; i = i + 1; }
    return 0;
}

func sweep() {
    var bx; var by;
    by = 0;
    while (by < 4) {
        bx = 0;
        while (bx < 4) {
            block(bx * 8, by * 8);
            bx = bx + 1;
        }
        by = by + 1;
    }
    return 0;
}

func block(x0, y0) {
    var u; var v; var acc;
    u = 0;
    while (u < 8) {
        v = 0;
        while (v < 8) {
            acc = dot(x0, y0 + u, v);
            output[(y0 + u) * 32 + x0 + v] = acc >> 4;
            v = v + 1;
        }
        u = u + 1;
    }
    return 0;
}

func dot(x0, row, v) {
    var k; var acc;
    acc = 0;
    k = 0;
    while (k < 8) {
        acc = acc + image[row * 32 + x0 + k] * coeff[v * 8 + k];
        k = k + 1;
    }
    return acc;
}
"""

_QSORT = """
# repeated quicksort of a 128-element array reshuffled each round
array data[128];
var seed;

func main() {
    seed = 12345;
    while (1) {
        shuffle();
        quicksort(0, 127);
    }
    return 0;
}

func rand() {
    seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF;
    return seed >> 8;
}

func shuffle() {
    var i;
    i = 0;
    while (i < 128) { data[i] = rand() % 1000; i = i + 1; }
    return 0;
}

func quicksort(lo, hi) {
    var p;
    if (lo >= hi) { return 0; }
    p = partition(lo, hi);
    quicksort(lo, p - 1);
    quicksort(p + 1, hi);
    return 0;
}

func partition(lo, hi) {
    var pivot; var i; var j; var t;
    pivot = data[hi];
    i = lo;
    j = lo;
    while (j < hi) {
        if (data[j] < pivot) {
            t = data[i]; data[i] = data[j]; data[j] = t;
            i = i + 1;
        }
        j = j + 1;
    }
    t = data[i]; data[i] = data[hi]; data[hi] = t;
    return i;
}
"""

_SOURCES = {"dct": _DCT, "qsort": _QSORT}


def _source(name: str) -> str:
    if name not in _SOURCES:
        known = ", ".join(EXTRA_WORKLOAD_NAMES)
        raise KeyError(f"unknown extra workload {name!r} (known: {known})")
    return _SOURCES[name]


def build_extra_program(name: str) -> Program:
    """Compile (once per source text) an extra workload by name.

    Raises:
        KeyError: for an unknown extra-workload name.
    """
    return build_source(_source(name), "mini")


def get_extra_trace(name: str, max_instructions: int = 30_000) -> Trace:
    """Execute (and cache) an extra workload to its dynamic trace.

    Raises:
        KeyError: for an unknown extra-workload name.
    """
    _source(name)
    return get_workload(name).trace(max_instructions)
