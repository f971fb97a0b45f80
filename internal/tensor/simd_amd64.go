//go:build amd64

package tensor

// haveAVX2 gates every SIMD kernel in the package: the fp64 rank updates
// (simd_amd64.s), which are bit-exact against their generic loops, and the
// int8 kernels (quant_amd64.s), whose absence also keeps quantization off —
// scalar int8 arithmetic is slower than the fp64 kernels. Tests flip it to
// exercise the generic paths.
var haveAVX2 = detectAVX2()

// detectAVX2 reports AVX2 support with OS-enabled YMM state (OSXSAVE set
// and XCR0 advertising XMM+YMM), the requirement for the 256-bit kernels.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	if c&osxsave == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuidAsm(7, 0)
	return b&(1<<5) != 0 // AVX2
}

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// fp64 rank-update kernels (simd_amd64.s), called only when haveAVX2 is
// set. Each updates y[0:n) for n a positive multiple of 4; rank r reads
// x[r*stride : r*stride+n], which the caller has bounds-checked.

//go:noescape
func axpyAsm(alpha float64, x, y *float64, n int)

//go:noescape
func axpy4Asm(c *[4]float64, x *float64, stride int, y *float64, n int)

//go:noescape
func axpy8Asm(c *[8]float64, x *float64, stride int, y *float64, n int)
