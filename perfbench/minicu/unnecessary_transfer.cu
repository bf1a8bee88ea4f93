// Anti-pattern #3: memory is copied to the GPU but half of it is never
// consumed, and the unmodified input is copied back. Run with:
//   xplacer analyze unnecessary_transfer.cu (after the benchmark fills in the @...@ sizes)

__global__ void use_front_half(int* buf, int n) {
    int i = threadIdx.x;
    if (i < n / 2) {
        buf[i] = buf[i] * 2;
    }
}

int main() {
    int* host = (int*)malloc(@N@ * sizeof(int));
    int* dev;
    cudaMalloc((void**)&dev, @N@ * sizeof(int));
    for (int i = 0; i < @N@; i++) {
        host[i] = i;
    }
    cudaMemcpy(dev, host, @N@ * sizeof(int), cudaMemcpyHostToDevice);
    use_front_half<<<1, @N@>>>(dev, @N@);
    cudaMemcpy(host, dev, @N@ * sizeof(int), cudaMemcpyDeviceToHost);
#pragma xpl diagnostic tracePrint(out; dev)
    return host[0];
}
