// A host-only scalar loop: no heap, no kernels, so the interpreter's own
// cost per statement is all that is measured. The benchmark knows the
// iteration count @ITERS@ it generated.

int main() {
    int n = @ITERS@;
    int acc = 0;
    int i = 0;
    while (i < n) {
        acc = (acc + i * @MUL@) % 1000003;
        i = i + 1;
    }
    printf("acc=%d\n", acc);
    return acc % 251;
}
