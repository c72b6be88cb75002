//go:build !amd64

package nn

// useVecKernels is false off amd64: the pure-Go blocked kernels run
// everywhere and are the bit-exactness reference.
var useVecKernels = false

func axpy4Vec(y, w []float64, stride int, c *[4]float64) {
	panic("nn: vector kernel called without hardware support")
}

func axpy8Vec(y, w []float64, stride int, c *[8]float64) {
	panic("nn: vector kernel called without hardware support")
}

func axpy4VecG(y, w0, w1, w2, w3 []float64, c *[4]float64) {
	panic("nn: vector kernel called without hardware support")
}

func axpy1Vec(y, w []float64, c float64) {
	panic("nn: vector kernel called without hardware support")
}

func adamVec(val, grad, m, v []float64, k *[8]float64) {
	panic("nn: vector kernel called without hardware support")
}

func tanhVec(y, x []float64, miss []uint8) {
	panic("nn: vector kernel called without hardware support")
}
