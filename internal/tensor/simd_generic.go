//go:build !amd64

package tensor

// Non-amd64 platforms have no SIMD kernels: the fp64 rank updates run their
// generic Go loops and QuantizeAvailable stays false.
var haveAVX2 = false

// The kernel entry points exist only so the shared dispatch compiles; with
// haveAVX2 false they are never reached.

func axpyAsm(alpha float64, x, y *float64, n int) { panic("tensor: no SIMD kernels") }

func axpy4Asm(c *[4]float64, x *float64, stride int, y *float64, n int) {
	panic("tensor: no SIMD kernels")
}

func axpy8Asm(c *[8]float64, x *float64, stride int, y *float64, n int) {
	panic("tensor: no SIMD kernels")
}
