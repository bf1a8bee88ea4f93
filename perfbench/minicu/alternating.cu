// A minimal program exhibiting the paper's anti-pattern #1: alternating
// CPU/GPU accesses to the same managed memory. Run with:
//   xplacer analyze alternating.cu (after the benchmark fills in the @...@ sizes)

__global__ void gpu_step(double* data, int n) {
    int i = threadIdx.x;
    if (i < n) {
        data[i] = data[i] * 0.5 + 1.0;
    }
}

int main() {
    double* data;
    cudaMallocManaged((void**)&data, @N@ * sizeof(double));
    for (int i = 0; i < @N@; i++) {
        data[i] = i;
    }
    for (int step = 0; step < @STEPS@; step++) {
        gpu_step<<<1, @N@>>>(data, @N@);
        cudaDeviceSynchronize();
        // The CPU nudges a few values between kernels: the page bounces.
        for (int i = 0; i < 4; i++) {
            data[i] = data[i] + 0.001;
        }
    }
#pragma xpl diagnostic tracePrint(out; data)
    return 0;
}
