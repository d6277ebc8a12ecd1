package mem

import (
	"fmt"
	"testing"
)

// The benchmarks size a space like the paper's AnonVM (section 5.2):
// 384 MiB of RAM plus a 128 MiB RAM-backed disk.
const (
	benchRAMPages  = 384 << 20 / PageSize
	benchDiskPages = 128 << 20 / PageSize
	benchSpaces    = 4
)

// bootSpaces writes benchSpaces spaces the way a VM boot does: a
// shared base-image prefix, a zeroed pool, a private remainder and the
// private disk.
func bootSpaces(b *testing.B, h *Host) []*Space {
	b.Helper()
	spaces := make([]*Space, benchSpaces)
	for i := range spaces {
		s, err := h.NewSpace(fmt.Sprintf("vm%d", i))
		if err != nil {
			b.Fatal(err)
		}
		const shared, zero = benchRAMPages / 2, benchRAMPages / 4
		if err := s.WriteClass(0, shared, "baseimg", 0); err != nil {
			b.Fatal(err)
		}
		if err := s.WriteZero(shared, zero); err != nil {
			b.Fatal(err)
		}
		if err := s.WriteUnique(shared+zero, benchRAMPages-shared-zero+benchDiskPages); err != nil {
			b.Fatal(err)
		}
		spaces[i] = s
	}
	return spaces
}

// BenchmarkWriteUnique measures writing a fresh space's RAM and disk
// with private content, the largest write of a VM boot.
func BenchmarkWriteUnique(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, _ := NewHost(0).NewSpace("vm")
		if err := s.WriteUnique(0, benchRAMPages+benchDiskPages); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanAll measures one KSM drain over four freshly booted
// spaces.
func BenchmarkScanAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := NewHost(0)
		bootSpaces(b, h)
		b.StartTimer()
		h.ScanAll()
	}
}

// BenchmarkRelease measures the secure wipe of four booted, scanned
// spaces.
func BenchmarkRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := NewHost(0)
		spaces := bootSpaces(b, h)
		h.ScanAll()
		b.StartTimer()
		for _, s := range spaces {
			s.Release()
		}
	}
}

var benchStats Stats

// BenchmarkStats measures one accounting snapshot of a host holding
// four booted, scanned spaces.
func BenchmarkStats(b *testing.B) {
	h := NewHost(0)
	bootSpaces(b, h)
	h.ScanAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStats = h.Stats()
	}
}
