//go:build !amd64

package main

// cpuModel is unknown off amd64: the fingerprint reads CPUID only there.
func cpuModel() string { return "unknown" }

// simdFlags: the mathx AVX kernels exist only on amd64.
func simdFlags() (avx, avx512f bool) { return false, false }
