// Package dsp is an analysistest stub of the real bluefi/internal/dsp
// pool API: same import path shape, same signatures, no pooling. The
// poolbalance and scratchalias fixtures import this instead of the real
// package so the fixtures stay hermetic inside testdata.
package dsp

func GetComplex(n int) []complex128 { return make([]complex128, n) }

func PutComplex(buf []complex128) { _ = buf }
