package vault

import (
	"bytes"
	"compress/gzip"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"testing"

	"nymix/internal/nymstate"
	"nymix/internal/sim"
)

// freshMAC is the addressing oracle: a new HMAC keyed with the
// address key for every computation, as the vault did before it kept
// one keyed HMAC per Save, Load or GC call.
func freshMAC(key []byte, parts ...[]byte) []byte {
	mac := hmac.New(sha256.New, key)
	for _, p := range parts {
		mac.Write(p)
	}
	return mac.Sum(nil)
}

func virtMeta(disk int, seg int, size int64) (d, meta []byte) {
	meta = make([]byte, 16)
	binary.BigEndian.PutUint64(meta[0:8], uint64(seg))
	binary.BigEndian.PutUint64(meta[8:16], uint64(size))
	return []byte{byte(disk)}, meta
}

// TestReusedAddressMACMatchesFreshHMAC runs one keys value through an
// interleaved sequence of addresses and nonces, repeating inputs, and
// checks every result against a fresh HMAC: Reset must carry no state
// from one computation to the next.
func TestReusedAddressMACMatchesFreshHMAC(t *testing.T) {
	ks := deriveKeys("pw", "alice")
	rnd := sim.NewRand(3)
	reals := [][]byte{nil, []byte("x"), patternBytes(1, 100), patternBytes(2, 70<<10)}
	paths := []string{"", "/home/user/.cache/browser", "/var/lib/" + string(bytes.Repeat([]byte("p"), 300))}
	for step := 0; step < 300; step++ {
		switch rnd.Intn(3) {
		case 0:
			data := reals[rnd.Intn(len(reals))]
			want := freshMAC(ks.mac, []byte("real\x00"), data)
			if got := ks.realAddr(data); !bytes.Equal(got[:], want) {
				t.Fatalf("step %d: realAddr(%d bytes) = %x, want %x", step, len(data), got, want)
			}
		case 1:
			disk, path := rnd.Intn(2), paths[rnd.Intn(len(paths))]
			seg, size := rnd.Intn(5), int64(rnd.Intn(1<<20))
			d, meta := virtMeta(disk, seg, size)
			want := freshMAC(ks.mac, []byte("virt\x00"), d, []byte(path), meta)
			if got := ks.virtAddr(disk, path, seg, size); !bytes.Equal(got[:], want) {
				t.Fatalf("step %d: virtAddr(%d, %q, %d, %d) = %x, want %x", step, disk, path, seg, size, got, want)
			}
		case 2:
			addr := ks.realAddr(reals[rnd.Intn(len(reals))])
			n := 12 + rnd.Intn(21)
			want := freshMAC(ks.mac, []byte("nonce\x00"), addr[:])[:n]
			if got := ks.chunkNonce(addr, n); !bytes.Equal(got, want) {
				t.Fatalf("step %d: chunkNonce = %x, want %x", step, got, want)
			}
		}
	}
}

func TestPooledGzipLenMatchesFreshWriter(t *testing.T) {
	inputs := [][]byte{{}, []byte("twitter=abc; gmail=def"), patternBytes(7, 100<<10), bytes.Repeat([]byte("ab"), 40<<10)}
	for i, data := range inputs {
		for round := 0; round < 3; round++ {
			// Leave a pooled writer mid-stream on unrelated input.
			zw := nymstate.GetGzipWriter(io.Discard)
			zw.Comment = "dirty"
			zw.Write(inputs[(i+round+1)%len(inputs)])
			nymstate.PutGzipWriter(zw)

			var fresh bytes.Buffer
			fw := gzip.NewWriter(&fresh)
			fw.Write(data)
			fw.Close()
			if got := gzipLen(data); got != int64(fresh.Len()) {
				t.Fatalf("input %d round %d: pooled gzipLen %d, fresh writer %d", i, round, got, fresh.Len())
			}
		}
	}
}
