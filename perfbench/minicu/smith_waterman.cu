// Smith-Waterman in MiniCU: the paper's §IV-B workload as a source
// program — managed matrices, CPU zero-initialization (the wasteful
// init), and one GPU kernel per anti-diagonal. Run with:
//   xplacer analyze smith_waterman.cu (after the benchmark fills in the @...@ sizes)

__global__ void sw_diag(int* H, int* P, int* a, int* b,
                        int* best, int n, int m, int d, int lo) {
    int t = threadIdx.x;
    int i = lo + t;
    int j = d - i;
    if (i >= 1 && i <= n && j >= 1 && j <= m) {
        int s = -3;
        if (a[i - 1] == b[j - 1]) { s = 3; }
        int w = m + 1;
        int hd = H[(i - 1) * w + (j - 1)] + s;
        int hu = H[(i - 1) * w + j] - 2;
        int hl = H[i * w + (j - 1)] - 2;
        int v = 0;
        int dir = 0;
        if (hd > v) { v = hd; dir = 1; }
        if (hu > v) { v = hu; dir = 2; }
        if (hl > v) { v = hl; dir = 3; }
        H[i * w + j] = v;
        P[i * w + j] = dir;
        if (v > best[d]) { best[d] = v; }
    }
}

int main() {
    int n = @N@;
    int m = @M@;
    int w = m + 1;
    int cells = (n + 1) * (m + 1);

    int* a;
    int* b;
    int* H;
    int* P;
    int* best;
    cudaMallocManaged((void**)&a, n * sizeof(int));
    cudaMallocManaged((void**)&b, m * sizeof(int));
    cudaMallocManaged((void**)&H, cells * sizeof(int));
    cudaMallocManaged((void**)&P, cells * sizeof(int));
    cudaMallocManaged((void**)&best, (n + m + 1) * sizeof(int));

    // Deterministic "molecular strings".
    for (int i = 0; i < n; i++) { a[i] = (i * 5 + 1) % 4; }
    for (int j = 0; j < m; j++) { b[j] = (j * 7 + 3) % 4; }

    // The examined implementation zeroes the whole matrices on the CPU —
    // XPlacer's Fig. 7 finding: only the boundary zeroes are ever read.
    for (int k = 0; k < cells; k++) { H[k] = 0; P[k] = 0; }

    // Anti-diagonal wavefront, one kernel per diagonal.
    for (int d = 2; d <= n + m; d++) {
        int lo = 1;
        if (d - m > 1) { lo = d - m; }
        int hi = n;
        if (d - 1 < n) { hi = d - 1; }
        int count = hi - lo + 1;
        if (count > 0) {
            sw_diag<<<1, count>>>(H, P, a, b, best, n, m, d, lo);
        }
    }
    cudaDeviceSynchronize();

    // CPU reduction of the per-diagonal maxima.
    int score = 0;
    for (int d = 0; d <= n + m; d++) {
        if (best[d] > score) { score = best[d]; }
    }
    printf("score=%d\n", score);
#pragma xpl diagnostic tracePrint(out; H, P, a, b)
    return score;
}
