package nymstate

import "testing"

// keySink keeps the benchmarked derivation from being optimised away.
var keySink []byte

// BenchmarkDeriveKey is one vault key derivation: KDFIterations rounds
// of PBKDF2-HMAC-SHA256 for 64 bytes, run on every vault Save, Load
// and GC.
func BenchmarkDeriveKey(b *testing.B) {
	password, salt := []byte("correct horse"), []byte("nymix-vault-v1\x00alice")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = DeriveKey(password, salt, KDFIterations, 64)
	}
}

// BenchmarkEstimateArchiveWireSize prices the monolithic baseline of a
// small state, as every vault-backed save does.
func BenchmarkEstimateArchiveWireSize(b *testing.B) {
	st := sampleState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateArchiveWireSize(st); err != nil {
			b.Fatal(err)
		}
	}
}
