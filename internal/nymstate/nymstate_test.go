package nymstate

import (
	"bytes"
	"compress/gzip"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"nymix/internal/anonnet"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
)

func sampleState() *State {
	anonDisk := unionfs.NewLayer("anon/writable")
	fsA, _ := unionfs.Stack(anonDisk)
	fsA.WriteFile("/home/user/.config/chromium/cookies.json", []byte(`{"twitter.com":"ck-1"}`))
	fsA.WriteVirtual("/home/user/.cache/chromium/blob", 20<<20, 0.95)
	commDisk := unionfs.NewLayer("comm/writable")
	fsC, _ := unionfs.Stack(commDisk)
	fsC.WriteFile("/var/lib/tor/state", []byte("guard relay-b"))
	fsC.WriteVirtual("/var/lib/tor/cached-consensus", 2200<<10, 0.6)
	return &State{
		Name:      "alice-blog",
		Model:     "persistent",
		Cycles:    3,
		AnonDisk:  anonDisk.Export(),
		CommDisk:  commDisk.Export(),
		AnonState: anonnet.State{"guard": "relay-b", "consensus": "cached"},
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	st := sampleState()
	a, err := Seal(st, "correct horse", sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	back, err := Open(a, "correct horse", "alice-blog")
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != st.Name || back.Model != st.Model || back.Cycles != 3 {
		t.Fatalf("metadata lost: %+v", back)
	}
	if back.AnonState["guard"] != "relay-b" {
		t.Fatalf("anon state lost: %v", back.AnonState)
	}
	restored := unionfs.Import(back.AnonDisk)
	fs, _ := unionfs.Stack(restored)
	data, err := fs.ReadFile("/home/user/.config/chromium/cookies.json")
	if err != nil || !bytes.Contains(data, []byte("ck-1")) {
		t.Fatalf("cookie file lost: %q %v", data, err)
	}
	info, err := fs.Stat("/home/user/.cache/chromium/blob")
	if err != nil || info.Size != 20<<20 {
		t.Fatalf("cache lost: %+v %v", info, err)
	}
}

func TestWrongPasswordRejected(t *testing.T) {
	a, _ := Seal(sampleState(), "right", sim.NewRand(1))
	if _, err := Open(a, "wrong", "alice-blog"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v", err)
	}
}

func TestNameBindingPreventsSwap(t *testing.T) {
	// The nym name is authenticated data: an adversary cannot serve
	// Bob's archive when Alice asks for hers.
	a, _ := Seal(sampleState(), "pw", sim.NewRand(1))
	if _, err := Open(a, "pw", "other-nym"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v", err)
	}
}

func TestCiphertextTamperDetected(t *testing.T) {
	a, _ := Seal(sampleState(), "pw", sim.NewRand(1))
	a.Ciphertext[len(a.Ciphertext)/2] ^= 0xFF
	if _, err := Open(a, "pw", "alice-blog"); !errors.Is(err, ErrBadPassword) {
		t.Fatalf("err = %v", err)
	}
}

func TestCiphertextLooksRandom(t *testing.T) {
	st := sampleState()
	a, _ := Seal(st, "pw", sim.NewRand(1))
	if bytes.Contains(a.Ciphertext, []byte("twitter")) || bytes.Contains(a.Ciphertext, []byte("guard")) {
		t.Fatal("plaintext visible in ciphertext")
	}
}

func TestWireSizeTracksContent(t *testing.T) {
	small := sampleState()
	a1, _ := Seal(small, "pw", sim.NewRand(1))
	big := sampleState()
	bigDisk := unionfs.Import(big.AnonDisk)
	fs, _ := unionfs.Stack(bigDisk)
	fs.GrowVirtual("/home/user/.cache/chromium/blob", 30<<20, 0.95)
	big.AnonDisk = bigDisk.Export()
	a2, _ := Seal(big, "pw", sim.NewRand(1))
	if a2.WireSize <= a1.WireSize {
		t.Fatalf("wire size did not grow: %d vs %d", a1.WireSize, a2.WireSize)
	}
	// High-entropy cache compresses barely; the 20 MiB cache alone
	// should keep the archive near its logical size.
	if a1.WireSize < 15<<20 {
		t.Fatalf("wire size %d implausibly small", a1.WireSize)
	}
	if a1.WireSize > int64(float64(LogicalSize(small))*1.05) {
		t.Fatalf("wire size %d exceeds logical %d", a1.WireSize, LogicalSize(small))
	}
}

func TestLowEntropyCompressesWell(t *testing.T) {
	st := sampleState()
	disk := unionfs.Import(st.AnonDisk)
	fs, _ := unionfs.Stack(disk)
	fs.Remove("/home/user/.cache/chromium/blob")
	fs.WriteVirtual("/home/user/logs", 20<<20, 0.05)
	st.AnonDisk = disk.Export()
	a, _ := Seal(st, "pw", sim.NewRand(1))
	if a.WireSize > 6<<20 {
		t.Fatalf("low-entropy archive = %d, want strong compression", a.WireSize)
	}
}

func TestArchiveEncodeDecode(t *testing.T) {
	a, _ := Seal(sampleState(), "pw", sim.NewRand(1))
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArchive(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.WireSize != a.WireSize || !bytes.Equal(back.Ciphertext, a.Ciphertext) {
		t.Fatal("archive round trip lost data")
	}
	if _, err := DecodeArchive([]byte("junk")); !errors.Is(err, ErrBadArchive) {
		t.Fatalf("junk decode: %v", err)
	}
}

func TestDeriveKeyKnownProperties(t *testing.T) {
	k1 := DeriveKey([]byte("pw"), []byte("salt"), 1000, 32)
	k2 := DeriveKey([]byte("pw"), []byte("salt"), 1000, 32)
	if !bytes.Equal(k1, k2) {
		t.Fatal("KDF not deterministic")
	}
	if bytes.Equal(k1, DeriveKey([]byte("pw"), []byte("other"), 1000, 32)) {
		t.Fatal("salt ignored")
	}
	if bytes.Equal(k1, DeriveKey([]byte("pw2"), []byte("salt"), 1000, 32)) {
		t.Fatal("password ignored")
	}
	if bytes.Equal(k1, DeriveKey([]byte("pw"), []byte("salt"), 999, 32)) {
		t.Fatal("iteration count ignored")
	}
	if len(DeriveKey([]byte("p"), []byte("s"), 10, 100)) != 100 {
		t.Fatal("multi-block output length wrong")
	}
}

// PBKDF2-HMAC-SHA256 test vectors of RFC 7914 section 11, all 64
// bytes. The c=80000 vector runs the iteration loop; both span two
// output blocks.
func TestDeriveKeyRFCVector(t *testing.T) {
	for _, v := range []struct {
		password, salt string
		iterations     int
		want           string
	}{
		{"passwd", "salt", 1, "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc" +
			"49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"},
		{"Password", "NaCl", 80000, "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56" +
			"a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d"},
	} {
		got := hex.EncodeToString(DeriveKey([]byte(v.password), []byte(v.salt), v.iterations, 64))
		if got != v.want {
			t.Errorf("PBKDF2(%q, %q, c=%d):\ngot  %s\nwant %s", v.password, v.salt, v.iterations, got, v.want)
		}
	}
}

// deriveKeyRef is the previous DeriveKey, which built a fresh HMAC for
// every block and iteration: the oracle the reused-HMAC loop must
// match byte for byte.
func deriveKeyRef(password, salt []byte, iterations, outLen int) []byte {
	if iterations < 1 {
		iterations = 1
	}
	var out []byte
	var block uint32
	for len(out) < outLen {
		block++
		mac := hmac.New(sha256.New, password)
		mac.Write(salt)
		var be [4]byte
		binary.BigEndian.PutUint32(be[:], block)
		mac.Write(be[:])
		u := mac.Sum(nil)
		acc := append([]byte(nil), u...)
		for i := 1; i < iterations; i++ {
			mac = hmac.New(sha256.New, password)
			mac.Write(u)
			u = mac.Sum(nil)
			for j := range acc {
				acc[j] ^= u[j]
			}
		}
		out = append(out, acc...)
	}
	return out[:outLen]
}

func TestDeriveKeyMatchesFreshHMACOracle(t *testing.T) {
	rnd := sim.NewRand(17)
	for trial := 0; trial < 4; trial++ {
		// Password lengths straddle the 64-byte HMAC block size, where
		// the key is hashed instead of padded.
		password := make([]byte, rnd.Intn(100))
		salt := make([]byte, rnd.Intn(40))
		rnd.Bytes(password)
		rnd.Bytes(salt)
		for _, iterations := range []int{1, 2, 3, KDFIterations} {
			for _, outLen := range []int{1, 31, 32, 33, 64, 100} {
				got := DeriveKey(password, salt, iterations, outLen)
				want := deriveKeyRef(password, salt, iterations, outLen)
				if !bytes.Equal(got, want) {
					t.Fatalf("password %x salt %x c=%d len=%d:\ngot  %x\nwant %x",
						password, salt, iterations, outLen, got, want)
				}
			}
		}
	}
}

// estimateArchiveWireSizeRef is the previous EstimateArchiveWireSize,
// with a fresh gzip writer and buffer per stream.
func estimateArchiveWireSizeRef(st *State) int64 {
	var plain bytes.Buffer
	zw := gzip.NewWriter(&plain)
	if err := encodeState(zw, st); err != nil {
		panic(err)
	}
	zw.Close()
	var virtual int64
	var real bytes.Buffer
	rw := gzip.NewWriter(&real)
	for _, img := range []unionfs.Image{st.AnonDisk, st.CommDisk} {
		for _, path := range SortedPaths(img.Files) {
			f := img.Files[path]
			if f.Real {
				rw.Write([]byte(path))
				rw.Write(f.Data)
				continue
			}
			virtual += VirtualWireSize(f.VirtualSize, f.Entropy)
		}
	}
	rw.Close()
	return virtual + int64(real.Len()) + int64(plain.Len()) + gcmTagLen + saltLen + gcmNonceLen
}

// dirtyPool leaves a pooled gzip writer mid-stream on unrelated input,
// so the next GetGzipWriter hands out a writer whose window, hash
// chains and header state all need Reset.
func dirtyPool(seed uint64) {
	junk := make([]byte, 70<<10)
	sim.NewRand(seed).Bytes(junk[:len(junk)/2])
	zw := GetGzipWriter(io.Discard)
	zw.Name = "dirty"
	zw.Write(junk)
	PutGzipWriter(zw)
}

func TestPooledGzipMatchesFreshWriter(t *testing.T) {
	states := []*State{sampleState(), {Name: "empty"}}
	big := sampleState()
	big.CommDisk.Files["/var/lib/tor/state"] = unionfs.FileImage{Real: true, Data: bytes.Repeat([]byte("relay "), 20000)}
	states = append(states, big)
	for i, st := range states {
		for round := 0; round < 3; round++ {
			dirtyPool(uint64(10*i + round))
			got, err := EstimateArchiveWireSize(st)
			if err != nil {
				t.Fatal(err)
			}
			if want := estimateArchiveWireSizeRef(st); got != want {
				t.Fatalf("state %d round %d: pooled estimate %d, fresh-writer estimate %d", i, round, got, want)
			}
		}
	}
}

func TestGuardSeedDeterministicAndDistinct(t *testing.T) {
	a := GuardSeed("pw", "dropbin/alice-blog")
	b := GuardSeed("pw", "dropbin/alice-blog")
	if a != b {
		t.Fatal("guard seed not deterministic")
	}
	if GuardSeed("pw2", "dropbin/alice-blog") == a {
		t.Fatal("password ignored")
	}
	if GuardSeed("pw", "gdrive/alice-blog") == a {
		t.Fatal("location ignored")
	}
}

// Property: seal/open is the identity for any state contents.
func TestPropertySealOpenIdentity(t *testing.T) {
	f := func(name string, cookie []byte, cacheKB uint16, entropyPct uint8, password string) bool {
		if name == "" {
			name = "n"
		}
		disk := unionfs.NewLayer("w")
		fs, _ := unionfs.Stack(disk)
		fs.WriteFile("/c", cookie)
		fs.WriteVirtual("/cache", int64(cacheKB)<<10, float64(entropyPct%101)/100)
		st := &State{Name: name, Model: "persistent", AnonDisk: disk.Export(), CommDisk: unionfs.NewLayer("c").Export()}
		a, err := Seal(st, password, sim.NewRand(42))
		if err != nil {
			return false
		}
		back, err := Open(a, password, name)
		if err != nil {
			return false
		}
		l := unionfs.Import(back.AnonDisk)
		fs2, _ := unionfs.Stack(l)
		got, err := fs2.ReadFile("/c")
		if err != nil || !bytes.Equal(got, cookie) {
			return false
		}
		info, err := fs2.Stat("/cache")
		return err == nil && info.Size == int64(cacheKB)<<10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateArchiveWireSizeMatchesSeal(t *testing.T) {
	// The estimate exists so callers can price the monolithic baseline
	// without paying PBKDF2+AES; it must agree with what Seal reports.
	st := sampleState()
	arch, err := Seal(st, "pw", sim.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	// State is encoded from sorted slices, so the estimate prices the
	// very bytes Seal compresses and must match it exactly.
	got, err := EstimateArchiveWireSize(st)
	if err != nil {
		t.Fatal(err)
	}
	if got != arch.WireSize {
		t.Fatalf("estimate %d vs sealed wire size %d", got, arch.WireSize)
	}
}
