package fleet

import (
	"testing"

	"nymix/internal/core"
	"nymix/internal/sim"
)

// testVaultDest maps a member to one pseudonymous account per nym,
// mirroring the experiments' convention.
func testVaultDest(m *Member) core.VaultDest {
	return core.VaultDest{
		Providers:       []string{"dropbin"},
		Account:         "acct-" + m.Name(),
		AccountPassword: "cloud-pw",
	}
}

// preemptCfg gives preemption a vault channel for persistent
// evictions.
func preemptCfg() Config {
	return Config{
		Preempt: PreemptConfig{
			VaultPassword: "fleet-pw",
			DestFor:       testVaultDest,
		},
	}
}

// preemptFor sacrifices members below m's class one at a time until
// the admission queue m waits in drains, re-reading the queue after
// every kill the way the cluster's preemption pass re-reads its own:
// a released reservation admits the head synchronously.
func preemptFor(p *sim.Proc, o *Orchestrator, m *Member) {
	for o.ram.queued() > 0 {
		if o.PreemptOne(p, m.pri) == 0 {
			return
		}
	}
}

// A 2 GiB host admits two 400 MiB nymboxes (0.9 headroom minus the
// ~715 MiB hypervisor baseline), so a third launch queues — the
// pressure every preemption test builds on.

func TestPreemptionAdmitsHigherClass(t *testing.T) {
	eng, o := newFleet(t, 31, 2<<30, preemptCfg())
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(2, core.ModelEphemeral)); err != nil {
			t.Fatalf("launch filler: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await filler: %v", err)
		}
		sys := Spec{Name: "sysnym", Opts: smallOpts(core.ModelEphemeral), Priority: PrioritySystem}
		m, err := o.Launch(sys)
		if err != nil {
			t.Fatalf("launch system: %v", err)
		}
		preemptFor(p, o, m)
		for m.State() != StateRunning && m.State() != StateFailed {
			sim.Await(p, o.ChangeFuture())
		}
		if m.State() != StateRunning {
			t.Fatalf("system nym %v (%v), want running via preemption", m.State(), m.LastErr())
		}
	})
	st := o.Preemptions()
	if st.Terminated != 1 || st.Evicted != 0 {
		t.Fatalf("preemptions = %+v, want exactly one terminated ephemeral", st)
	}
	if got := o.CountState(StatePreempted); got != 1 {
		t.Fatalf("preempted members = %d, want 1", got)
	}
	// The victim's reservation was released: exactly two footprints
	// (one survivor + the system nym) remain reserved.
	want := 2 * smallOpts(core.ModelEphemeral).Footprint()
	if got := o.ReservedBytes(); got != want {
		t.Fatalf("reserved = %d, want %d", got, want)
	}
}

// TestPreemptionOrderEphemeralBeforePersistent is the ordering
// regression: even when the persistent member is the colder victim,
// the ephemeral one dies first — persistent nyms rank above ephemeral
// in the class ladder.
func TestPreemptionOrderEphemeralBeforePersistent(t *testing.T) {
	eng, o := newFleet(t, 33, 2<<30, preemptCfg())
	run(t, eng, func(p *sim.Proc) {
		// The persistent member launches (and runs) first, making it
		// the coldest; the ephemeral follows.
		per := smallOpts(core.ModelPersistent)
		per.GuardSeed = "oldtimer"
		if _, err := o.Launch(Spec{Name: "oldtimer", Opts: per}); err != nil {
			t.Fatalf("launch persistent: %v", err)
		}
		if err := o.AwaitRunning(p, 1); err != nil {
			t.Fatalf("await persistent: %v", err)
		}
		if _, err := o.Launch(Spec{Name: "drifter", Opts: smallOpts(core.ModelEphemeral)}); err != nil {
			t.Fatalf("launch ephemeral: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await both: %v", err)
		}
		sys := Spec{Name: "sysnym", Opts: smallOpts(core.ModelEphemeral), Priority: PrioritySystem}
		m, err := o.Launch(sys)
		if err != nil {
			t.Fatalf("launch system: %v", err)
		}
		preemptFor(p, o, m)
		for m.State() != StateRunning && m.State() != StateFailed {
			sim.Await(p, o.ChangeFuture())
		}
		if m.State() != StateRunning {
			t.Fatalf("system nym %v, want running", m.State())
		}
	})
	if st := o.Preemptions(); st.Terminated != 1 || st.Evicted != 0 {
		t.Fatalf("preemptions = %+v, want the ephemeral terminated and the persistent spared", st)
	}
	if got := o.Member("drifter").State(); got != StatePreempted {
		t.Fatalf("ephemeral member = %v, want preempted", got)
	}
	if got := o.Member("oldtimer").State(); got != StateRunning {
		t.Fatalf("persistent member = %v, want still running", got)
	}
}

// TestPreemptionEvictsPersistentThroughVault: when only persistent
// members stand below a System launch, the victim is checkpointed to
// the NymVault before its nymbox dies, so its durable identity
// survives the eviction.
func TestPreemptionEvictsPersistentThroughVault(t *testing.T) {
	eng, o := newFleet(t, 35, 2<<30, preemptCfg())
	run(t, eng, func(p *sim.Proc) {
		if _, err := o.LaunchAll(specs(2, core.ModelPersistent)); err != nil {
			t.Fatalf("launch filler: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await filler: %v", err)
		}
		sys := Spec{Name: "sysnym", Opts: smallOpts(core.ModelEphemeral), Priority: PrioritySystem}
		m, err := o.Launch(sys)
		if err != nil {
			t.Fatalf("launch system: %v", err)
		}
		preemptFor(p, o, m)
		for m.State() != StateRunning && m.State() != StateFailed {
			sim.Await(p, o.ChangeFuture())
		}
		if m.State() != StateRunning {
			t.Fatalf("system nym %v, want running", m.State())
		}
	})
	if st := o.Preemptions(); st.Terminated != 0 || st.Evicted != 1 {
		t.Fatalf("preemptions = %+v, want exactly one vaulted eviction", st)
	}
	for _, m := range o.Members() {
		if m.State() != StatePreempted {
			continue
		}
		if _, ok := m.Checkpoint(); !ok {
			t.Fatalf("evicted member %s has no vault checkpoint", m.Name())
		}
	}
}

// TestNoPreemptionWithoutVictims: a System launch queued above only
// same-or-higher classes finds no victim to preempt; the queue stalls
// honestly and AwaitRunning errors instead of parking forever.
func TestNoPreemptionWithoutVictims(t *testing.T) {
	eng, o := newFleet(t, 37, 2<<30, preemptCfg())
	var awaitErr error
	run(t, eng, func(p *sim.Proc) {
		fillers := specs(2, core.ModelEphemeral)
		for i := range fillers {
			fillers[i].Priority = PrioritySystem
		}
		if _, err := o.LaunchAll(fillers); err != nil {
			t.Fatalf("launch filler: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await filler: %v", err)
		}
		third, err := o.Launch(Spec{Name: "third", Opts: smallOpts(core.ModelEphemeral), Priority: PrioritySystem})
		if err != nil {
			t.Fatalf("launch third: %v", err)
		}
		preemptFor(p, o, third)
		awaitErr = o.AwaitRunning(p, 3)
	})
	if awaitErr == nil {
		t.Fatal("AwaitRunning(3) returned nil on a 2-slot host with no victims")
	}
	if st := o.Preemptions(); st.Total() != 0 {
		t.Fatalf("preemptions = %+v, want none", st)
	}
}

// TestPreemptionEvictsPreconfiguredThroughVault is the regression for
// the durable-model gate: pre-configured nyms rank PriorityPersistent
// and carry durable identity, so a preempted one must be vaulted and
// counted as evicted — never terminated like an ephemeral.
func TestPreemptionEvictsPreconfiguredThroughVault(t *testing.T) {
	eng, o := newFleet(t, 39, 2<<30, preemptCfg())
	run(t, eng, func(p *sim.Proc) {
		pre := specs(2, core.ModelPreconfigured)
		if _, err := o.LaunchAll(pre); err != nil {
			t.Fatalf("launch filler: %v", err)
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Fatalf("await filler: %v", err)
		}
		sys := Spec{Name: "sysnym", Opts: smallOpts(core.ModelEphemeral), Priority: PrioritySystem}
		m, err := o.Launch(sys)
		if err != nil {
			t.Fatalf("launch system: %v", err)
		}
		preemptFor(p, o, m)
		for m.State() != StateRunning && m.State() != StateFailed {
			sim.Await(p, o.ChangeFuture())
		}
		if m.State() != StateRunning {
			t.Fatalf("system nym %v, want running", m.State())
		}
	})
	if st := o.Preemptions(); st.Terminated != 0 || st.Evicted != 1 {
		t.Fatalf("preemptions = %+v, want the preconfigured victim evicted, not terminated", st)
	}
	for _, m := range o.Members() {
		if m.State() != StatePreempted {
			continue
		}
		if _, ok := m.Checkpoint(); !ok {
			t.Fatalf("evicted preconfigured member %s has no vault checkpoint", m.Name())
		}
	}
}
