package fleet

import (
	"errors"
	"testing"

	"nymix/internal/anonnet"
	"nymix/internal/core"
	"nymix/internal/sim"
)

// mixOpts is a small nymbox whose transport holds a standing uplink
// rate — the mixnet cover clock — so wire admission has something to
// reserve against.
func mixOpts(name string) core.Options {
	opts := smallOpts(core.ModelPersistent)
	opts.GuardSeed = name
	opts.Anonymizer = "mixnet"
	return opts
}

func TestWireBudgetAdmitsSequentially(t *testing.T) {
	rate := mixOpts("x").WireRate()
	if rate <= 0 {
		t.Fatalf("mixnet wire rate = %d, want > 0", rate)
	}
	if r := smallOpts(core.ModelEphemeral).WireRate(); r != 0 {
		t.Fatalf("default transport wire rate = %d, want 0", r)
	}

	// Budget for exactly two standing cover streams: the third member
	// must queue until one of the first two stops.
	eng, o := newFleet(t, 51, 16<<30, Config{WireBudget: float64(2 * rate)})
	run(t, eng, func(p *sim.Proc) {
		for _, name := range []string{"amy", "ben", "cas"} {
			if _, err := o.Launch(Spec{Name: name, Opts: mixOpts(name)}); err != nil {
				t.Errorf("launch %s: %v", name, err)
				return
			}
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await 2: %v", err)
			return
		}
		if got := o.WireReservedRate(); got != 2*rate {
			t.Errorf("reserved wire rate = %d, want %d", got, 2*rate)
		}
		if got := o.QueuedWireLaunches(); got != 1 {
			t.Errorf("queued wire launches = %d, want 1", got)
		}
		if o.CanAdmitWire(rate) {
			t.Error("budget claims room for a third cover stream")
		}
		if o.Member("cas").State() == StateRunning {
			t.Error("third member admitted past the wire budget")
		}

		// Stopping one member frees its rate and the queued member runs.
		if err := o.Stop(p, "amy"); err != nil {
			t.Errorf("stop amy: %v", err)
			return
		}
		if err := o.AwaitRunning(p, 2); err != nil {
			t.Errorf("await after stop: %v", err)
			return
		}
		if o.Member("cas").State() != StateRunning {
			t.Error("queued member never admitted after wire freed")
		}
		if got := o.WireReservedRate(); got != 2*rate {
			t.Errorf("reserved rate after churn = %d, want %d", got, 2*rate)
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop all: %v", err)
		}
	})
	if got := o.WireReservedRate(); got != 0 {
		t.Fatalf("wire reservation leaked: %d", got)
	}
}

func TestWireBudgetNeverAdmissible(t *testing.T) {
	rate := mixOpts("x").WireRate()
	eng, o := newFleet(t, 53, 16<<30, Config{WireBudget: float64(rate) / 2})
	run(t, eng, func(p *sim.Proc) {
		_, err := o.Launch(Spec{Name: "amy", Opts: mixOpts("amy")})
		if !errors.Is(err, ErrNeverAdmissible) {
			t.Errorf("launch past an impossible wire budget: %v, want ErrNeverAdmissible", err)
		}
	})
}

// TestWireBudgetIgnoresDemandDrivenTransports: members without a
// standing rate never touch the wire semaphore, so a tight wire budget
// does not gate a plain tor fleet.
func TestWireBudgetIgnoresDemandDriven(t *testing.T) {
	eng, o := newFleet(t, 55, 16<<30, Config{WireBudget: 1})
	run(t, eng, func(p *sim.Proc) {
		for _, s := range specs(3, core.ModelEphemeral) {
			if _, err := o.Launch(s); err != nil {
				t.Errorf("launch %s: %v", s.Name, err)
				return
			}
		}
		if err := o.AwaitRunning(p, 3); err != nil {
			t.Errorf("await: %v", err)
		}
		if got := o.WireReservedRate(); got != 0 {
			t.Errorf("demand-driven fleet reserved %d B/s of wire", got)
		}
		if err := o.StopAll(p); err != nil {
			t.Errorf("stop: %v", err)
		}
	})
}

// TestWireRateMatchesRegistry pins the admission arithmetic to the
// transport registry's self-declared idle rates.
func TestWireRateMatchesRegistry(t *testing.T) {
	opts := mixOpts("x")
	if got, want := float64(opts.WireRate()), anonnet.IdleWireRate("mixnet"); got < want || got > want+1 {
		t.Fatalf("WireRate = %v, want ceil of registry rate %v", got, want)
	}
	chained := opts
	chained.Chain = []string{"mixnet", "tor"}
	if got := chained.WireRate(); got != opts.WireRate() {
		t.Fatalf("chain wire rate = %d, want mixnet-only %d (tor adds no standing rate)", got, opts.WireRate())
	}
}
