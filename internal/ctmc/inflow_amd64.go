package ctmc

// haveKernel reports whether inflow may call inflowKernel: the CPU and the
// operating system support AVX2 (see hasAVX2). It is set once, at package
// initialisation.
var haveKernel = hasAVX2()

// inflowKernel sets x to the inflow of a line of width len(x) ≥ 16 from the
// sources from under pi, with the arithmetic of inflowLoop, sixteen states at
// a time with AVX2 (inflow_amd64.s). The caller must ensure that every source
// line lies in pi and that x does not overlap pi.
//
//go:noescape
func inflowKernel(x, pi []float64, from []jump)

// cpuid returns the registers CPUID sets for the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register of the states that the operating system
// saves and restores.
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7, EBX bit 5) and AVX
// with OSXSAVE (leaf 1, ECX bits 28 and 27), and whether the operating system
// saves the XMM and YMM registers (XCR0 bits 1 and 2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
