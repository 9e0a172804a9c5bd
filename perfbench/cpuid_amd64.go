package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// cpuModel is the CPUID brand string.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range []uint32{a, bx, c, d} {
			b = binary.LittleEndian.AppendUint32(b, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}

// simdFlags reports the two CPU features that select the mathx kernels, by
// the same test mathx applies: the CPUID bit and the OS saving the register
// state (XCR0).
func simdFlags() (avx, avx512f bool) {
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avxBit = 1 << 27, 1 << 28
	if ecx&osxsave == 0 {
		return false, false
	}
	xcr0, _ := xgetbv0()
	avx = ecx&avxBit != 0 && xcr0&0x6 == 0x6
	if max, _, _, _ := cpuid(0, 0); max >= 7 && xcr0&0xe6 == 0xe6 {
		_, ebx, _, _ := cpuid(7, 0)
		avx512f = ebx&(1<<16) != 0
	}
	return avx, avx512f
}
