package vm

import (
	"testing"

	"nymix/internal/guestos"
	"nymix/internal/mem"
	"nymix/internal/sim"
)

// BenchmarkBoot measures booting one AnonVM at the paper's section 5.2
// size (384 MiB RAM, 128 MiB disk) on a fresh host: the page writes
// of KVM's init-time touch plus the guest's boot wait.
func BenchmarkBoot(b *testing.B) {
	cfg := Config{
		Name:      "anon0",
		Role:      guestos.RoleAnonVM,
		RAMBytes:  384 * guestos.MiB,
		DiskBytes: 128 * guestos.MiB,
	}
	conf := guestos.ConfigLayer(cfg.Role, "tor")
	base := guestos.BuildBaseImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(1)
		v, err := New(eng, mem.NewHost(0), cfg, conf, base)
		if err != nil {
			b.Fatal(err)
		}
		eng.Go("boot", func(p *sim.Proc) {
			if err := v.Boot(p); err != nil {
				b.Error(err)
			}
		})
		eng.Run()
	}
}
