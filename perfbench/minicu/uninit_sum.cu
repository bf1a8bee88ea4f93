// Defect kept on purpose: the checksum reads one element of a malloc'd
// buffer that was never written, so `check` must report it and exit 1.

int main() {
    int n = @N@;
    int* a = (int*)malloc(n * sizeof(int));
    for (int i = 0; i < n - 1; i++) { a[i] = (i * 7 + 3) % 11; }
    int acc = 0;
    for (int i = 0; i < n; i++) { acc = acc + a[i]; }
    printf("acc=%d\n", acc);
    free(a);
    return 0;
}
