// Rodinia Pathfinder in MiniCU: cudaMalloc + one bulk transfer + pyramid
// kernels, each touching 1/N of gpuWall (the Table II finding). Run with:
//   xplacer analyze pathfinder.cu (after the benchmark fills in the @...@ sizes)

__global__ void dynproc(int* gpuWall, int* src, int* dst,
                        int cols, int startRow) {
    int c = threadIdx.x + blockIdx.x * blockDim.x;
    if (c < cols) {
        int best = src[c];
        if (c > 0 && src[c - 1] < best) { best = src[c - 1]; }
        if (c + 1 < cols && src[c + 1] < best) { best = src[c + 1]; }
        dst[c] = best + gpuWall[startRow * cols + c];
    }
}

int main() {
    int cols = @COLS@;
    int rows = @ROWS@;
    int pyramid = 2;

    int* wall = (int*)malloc(rows * cols * sizeof(int));
    for (int k = 0; k < rows * cols; k++) { wall[k] = (k * 13 + 5) % 10; }

    int* gpuWall;
    int* r0;
    int* r1;
    cudaMalloc((void**)&gpuWall, (rows - 1) * cols * sizeof(int));
    cudaMalloc((void**)&r0, cols * sizeof(int));
    cudaMalloc((void**)&r1, cols * sizeof(int));

    // Seed row + the whole wall in one bulk copy.
    cudaMemcpy(r0, wall, cols * sizeof(int), cudaMemcpyHostToDevice);
    int* wall1 = wall + cols;
    cudaMemcpy(gpuWall, wall1, (rows - 1) * cols * sizeof(int),
               cudaMemcpyHostToDevice);

    int src = 0;
    for (int row = 0; row < rows - 1; row++) {
        if (src == 0) {
            dynproc<<<1, cols>>>(gpuWall, r0, r1, cols, row);
        } else {
            dynproc<<<1, cols>>>(gpuWall, r1, r0, cols, row);
        }
        src = 1 - src;
        // the paper analyzes gpuWall after each pyramid of iterations
        if (row % pyramid == 1) {
#pragma xpl diagnostic tracePrint(out; gpuWall)
        }
    }
    cudaDeviceSynchronize();

    int* result = (int*)malloc(cols * sizeof(int));
    if (src == 0) {
        cudaMemcpy(result, r0, cols * sizeof(int), cudaMemcpyDeviceToHost);
    } else {
        cudaMemcpy(result, r1, cols * sizeof(int), cudaMemcpyDeviceToHost);
    }
    int sum = 0;
    for (int c = 0; c < cols; c++) { sum = sum + result[c]; }
    printf("checksum=%d\n", sum);
    return sum % 251;
}
