package core

import (
	"reflect"
	"testing"

	"nymix/internal/cpusched"
	"nymix/internal/hypervisor"
	"nymix/internal/nymstate"
	"nymix/internal/sim"
	"nymix/internal/unionfs"
	"nymix/internal/webworld"
)

// twoManagers builds two Nymix hosts on one world sharing one cloud
// provider set — host A saves, host B restores.
func twoManagers(t *testing.T, seed uint64) (*sim.Engine, *webworld.World, *Manager, *Manager) {
	t.Helper()
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	providers := DefaultProviders(world)
	newHost := func(name string) *Manager {
		m, err := NewManagerWith(eng, world, hypervisor.Config{
			Name:     name,
			RAMBytes: 16 << 30,
			CPU:      cpusched.DefaultConfig(),
		}, ManagerConfig{Providers: providers})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return eng, world, newHost("hostA"), newHost("hostB")
}

// virtualWire sums the modeled compressed wire size of an image's
// virtual files — the size-relevant identity of bulk content (caches,
// consensus) that carries no real bytes.
func virtualWire(img unionfs.Image) int64 {
	var sum int64
	for _, f := range img.Files {
		if !f.Real {
			sum += nymstate.VirtualWireSize(f.VirtualSize, f.Entropy)
		}
	}
	return sum
}

// TestVaultMigrationPreservesStateAcrossManagers is the end-to-end
// migration property: for every usage model, save on host A →
// terminate → restore on host B yields byte-identical nym state
// (writable layers DeepEqual, virtual wire sizes unchanged, guard and
// credentials intact), the tracker-visible identity is unchanged (the
// site sees the same cookie before and after the move), and the
// source host is left with zero VMs and zero running nyms.
func TestVaultMigrationPreservesStateAcrossManagers(t *testing.T) {
	for i, model := range []UsageModel{ModelEphemeral, ModelPersistent, ModelPreconfigured} {
		model := model
		t.Run(string(model), func(t *testing.T) {
			eng, world, src, dst := twoManagers(t, uint64(70+i))
			opts := Options{Model: model, GuardSeed: "mig-seed"}
			dest := VaultDest{Providers: []string{"dropbin"}, Account: "acct-mig", AccountPassword: "cpw"}
			run(t, eng, func(p *sim.Proc) {
				nym, err := src.StartNym(p, "mig", opts)
				if err != nil {
					t.Errorf("start: %v", err)
					return
				}
				if _, err := nym.Browser().Login(p, "twitter.com", "persona", "pw"); err != nil {
					t.Errorf("login: %v", err)
					return
				}
				if _, err := nym.Visit(p, "gmail.com"); err != nil {
					t.Errorf("visit: %v", err)
					return
				}
				guard := nym.Anonymizer().ExportState()["guard"]

				if _, err := src.StoreNymVault(p, nym, "vault-pw", dest); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				// The state as stored: what the paused-and-synced disks held.
				anonImg := nym.AnonVM().Disk().Snapshot()
				commImg := nym.CommVM().Disk().Snapshot()
				if err := src.TerminateNym(p, nym); err != nil {
					t.Errorf("terminate: %v", err)
					return
				}
				if got := src.Host().VMCount(); got != 0 {
					t.Errorf("source host VMs after terminate = %d, want 0", got)
				}
				if got := src.RunningNyms(); got != 0 {
					t.Errorf("source running nyms = %d, want 0", got)
				}

				restored, err := dst.LoadNymVault(p, "mig", "vault-pw", opts, dest)
				if err != nil {
					t.Errorf("restore on host B: %v", err)
					return
				}
				// Byte-identical writable layers on the new host.
				if got := restored.AnonVM().Disk().Snapshot(); !reflect.DeepEqual(unnamed(anonImg), unnamed(got)) {
					t.Errorf("%s: AnonVM disk differs across hosts", model)
				}
				if got := restored.CommVM().Disk().Snapshot(); !reflect.DeepEqual(unnamed(commImg), unnamed(got)) {
					t.Errorf("%s: CommVM disk differs across hosts", model)
				}
				// Virtual content prices to the identical wire size.
				if want, got := virtualWire(anonImg), virtualWire(restored.AnonVM().Disk().Snapshot()); want != got {
					t.Errorf("%s: AnonVM virtual wire %d -> %d across migration", model, want, got)
				}
				if want, got := virtualWire(commImg), virtualWire(restored.CommVM().Disk().Snapshot()); want != got {
					t.Errorf("%s: CommVM virtual wire %d -> %d across migration", model, want, got)
				}
				// Anonymizer identity (the seeded guard) survives.
				if got := restored.Anonymizer().ExportState()["guard"]; got != guard {
					t.Errorf("%s: guard %q -> %q across migration", model, guard, got)
				}
				if cred, ok := restored.Browser().Credentials("twitter.com"); !ok || cred.Account != "persona" {
					t.Errorf("%s: credentials lost: %+v %v", model, cred, ok)
				}
				// Tracker-visible identity: a revisit from host B presents
				// the same first-party cookie the site saw from host A.
				if _, err := restored.Visit(p, "twitter.com"); err != nil {
					t.Errorf("revisit: %v", err)
					return
				}
				visits := world.Site("twitter.com").Visits()
				first, last := visits[0], visits[len(visits)-1]
				if first.CookieID == "" || first.CookieID != last.CookieID {
					t.Errorf("%s: cookie changed across hosts: %q -> %q", model, first.CookieID, last.CookieID)
				}
				if first.Fingerprint != last.Fingerprint {
					t.Errorf("%s: fingerprint changed across hosts", model)
				}
				// The move left nothing behind on the source.
				if got := src.Host().VMCount(); got != 0 {
					t.Errorf("source host VMs after migration = %d, want 0", got)
				}
				if err := dst.TerminateNym(p, restored); err != nil {
					t.Errorf("final terminate: %v", err)
				}
			})
		})
	}
}
