package vault

import (
	"fmt"
	"testing"

	"nymix/internal/cloud"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
)

// BenchmarkVaultSave is a steady-state delta save: the small test state
// with one cookie rewritten per save, to one simulated provider whose
// chunks are already indexed. Each op derives the keys, chunks and
// prices the state, uploads the changed chunk and reseals the manifest.
func BenchmarkVaultSave(b *testing.B) {
	r := newRig(b, 0)
	st := testState("alice")
	vs := NewStore("alice", Replicate, nil)
	r.run(b, 1, func(p *sim.Proc, sessions []*cloud.Session) {
		if _, err := vs.Save(p, st, "pw", sessions, r.eng.Rand()); err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Cycles++
			st.AnonDisk.Files["/home/user/.mozilla/cookies"] = unionfs.FileImage{Real: true, Data: []byte(fmt.Sprintf("twitter=%d", i))}
			if _, err := vs.Save(p, st, "pw", sessions, r.eng.Rand()); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
}
