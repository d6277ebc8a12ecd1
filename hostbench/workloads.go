package main

import (
	"bytes"
	"fmt"
	"time"

	"nymix/internal/browser"
	"nymix/internal/cluster"
	"nymix/internal/core"
	"nymix/internal/experiments"
	"nymix/internal/fleet"
	"nymix/internal/guestos"
	"nymix/internal/hypervisor"
	"nymix/internal/sim"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// A workload runs one pass: it builds a fresh world from the seed
// (set-up), then drives its fixed op sequence from a single simulated
// process, closed loop: each call is issued only after the previous
// one returned.
type workload struct {
	name string
	run  func(seed uint64, r *passRec) error
}

// Benchmark sizes. A pass is sized to take a few host seconds, so a
// run holds several passes and reports their medians.
const (
	bootWave  = 4 // one nymbox per bootSites entry
	bootWaves = 4

	ckptNyms   = 4
	ckptRounds = 25

	econNyms   = 32
	econHosts  = 2
	econRounds = 4
)

func workloads() []workload {
	return []workload{
		{"boot", bootPass(bootWave, bootWaves)},
		{"checkpoint", checkpointPass(ckptNyms, ckptRounds)},
		{"economy", economyPass(econNyms, econHosts, econRounds, nil)},
	}
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputSalt separates the input generator's stream from the engine's.
const inputSalt = 0x5eed_1b0c_4a11_7e57

// drive runs fn as the pass's single controlling process and drains the
// engine.
func drive(eng *sim.Engine, name string, fn func(p *sim.Proc) error) error {
	var err error
	finished := false
	eng.Go(name, func(p *sim.Proc) {
		err = fn(p)
		finished = true
	})
	eng.Run()
	if !finished {
		return fmt.Errorf("process %s parked forever: the engine drained first", name)
	}
	return err
}

// bootSites are the visit targets, paper workload sites that need no
// login. Each wave visits every site once, in a seeded order, so every
// seed does the same amount of browsing.
var bootSites = []string{"youtube.com", "blog.torproject.org", "bbc.co.uk", "espn.com"}

// bootPass: waves of ephemeral nymboxes at the paper's section 5.2
// sizes through one fleet orchestrator on the paper's 16 GB host. An
// op is one nymbox lifecycle: launch, run, one page visit, stop,
// detach. No vault call runs.
func bootPass(wave, waves int) func(uint64, *passRec) error {
	return func(seed uint64, r *passRec) error {
		in := sim.NewRand(seed ^ inputSalt)
		eng := sim.NewEngine(seed)
		_, world := webworld.BuildDefault(eng)
		mgr, err := core.NewManager(eng, world, hypervisor.DefaultConfig())
		if err != nil {
			return err
		}
		o := fleet.New(mgr, fleet.Config{})
		sites := make([]string, 0, wave*waves)
		for len(sites) < wave*waves {
			for _, i := range in.Perm(len(bootSites)) {
				sites = append(sites, bootSites[i])
			}
		}
		r.planned = wave * waves
		r.beginMeasure(eng)
		var restarts int
		err = drive(eng, "hostbench-boot", func(p *sim.Proc) error {
			for w := 0; w < waves; w++ {
				specs := make([]fleet.Spec, wave)
				for i := range specs {
					specs[i] = fleet.Spec{Name: fmt.Sprintf("boot%02d-%02d", w, i)}
				}
				if err := r.tr.span("fleet.launch", func() error {
					if _, err := o.LaunchAll(specs); err != nil {
						return err
					}
					return o.AwaitRunning(p, wave)
				}); err != nil {
					return err
				}
				r.probe(mgr.Host())
				for i, s := range specs {
					m := o.Member(s.Name)
					r.phases(m.Nym())
					restarts += m.Restarts()
					var res browser.VisitResult
					if err := r.tr.span("core.visit", func() error {
						var err error
						res, err = m.Nym().Visit(p, sites[w*wave+i])
						return err
					}); err != nil {
						return err
					}
					r.feed("visit", res)
				}
				r.probe(mgr.Host())
				if err := r.tr.span("fleet.stop", func() error {
					if err := o.StopAll(p); err != nil {
						return err
					}
					for _, s := range specs {
						if err := o.Detach(s.Name); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return err
				}
				if n := mgr.Host().VMCount(); n != 0 {
					return &outputMismatch{fmt.Sprintf("wave %d left %d VMs on the host", w, n)}
				}
				r.probe(mgr.Host())
				r.done(wave, p.Now())
			}
			return nil
		})
		r.endMeasure()
		r.hostTotals(mgr)
		r.peak("fleet.peak_ram_gib", float64(o.PeakRAMBytes())/(1<<30))
		r.add("fleet.restarts", float64(restarts))
		r.fleetFailures(o)
		return err
	}
}

// ckptPath is the file each checkpoint round rewrites.
const ckptPath = "/home/user/notes.db"

// checkpointPass: a fixed set of persistent nyms at the fleet density
// profile on one manager. Each round every nym gets a seeded write
// and a vault save, then one seeded nym is terminated and restored
// from the vault, and the restored file must equal the bytes last
// written. Set-up covers the initial boots and cold saves. An op is
// one save or one restore.
func checkpointPass(nyms, rounds int) func(uint64, *passRec) error {
	return func(seed uint64, r *passRec) error {
		in := sim.NewRand(seed ^ inputSalt)
		eng := sim.NewEngine(seed)
		_, world := webworld.BuildDefault(eng)
		mgr, err := core.NewManager(eng, world, experiments.FleetHostConfig())
		if err != nil {
			return err
		}
		const password = "ckpt-pw"
		names := make([]string, nyms)
		dests := make([]core.VaultDest, nyms)
		for i := range names {
			names[i] = fmt.Sprintf("ckpt%02d", i)
			dests[i] = vaultDest(names[i])
		}
		// FleetNymOptions makes every fourth index persistent.
		opts := func(i int) core.Options { return experiments.FleetNymOptions(names[i], 0) }
		r.planned = rounds * (nyms + 1)
		err = drive(eng, "hostbench-checkpoint", func(p *sim.Proc) error {
			live := make([]*core.Nym, nyms)
			last := make([][]byte, nyms)
			for i := range live {
				if err := r.tr.span("core.start", func() error {
					var err error
					live[i], err = mgr.StartNym(p, names[i], opts(i))
					return err
				}); err != nil {
					return err
				}
				r.phases(live[i])
			}
			for i, n := range live {
				if err := r.tr.span("core.save", func() error {
					st, err := mgr.StoreNymVault(p, n, password, dests[i])
					r.saved(st)
					return err
				}); err != nil {
					return err
				}
			}
			r.beginMeasure(eng)
			r.probe(mgr.Host())
			for round := 0; round < rounds; round++ {
				for i, n := range live {
					data := make([]byte, 4<<10+in.Intn(60<<10))
					in.Bytes(data)
					if err := r.tr.span("vdisk.write", func() error {
						return n.AnonVM().Disk().WriteFile(ckptPath, data)
					}); err != nil {
						return err
					}
					last[i] = data
					t0 := cpuTime()
					if err := r.tr.span("core.save", func() error {
						st, err := mgr.StoreNymVault(p, n, password, dests[i])
						r.saved(st)
						return err
					}); err != nil {
						return err
					}
					r.saveMs = append(r.saveMs, ms(cpuTime()-t0))
					r.done(1, p.Now())
				}
				v := in.Intn(nyms)
				if err := r.tr.span("core.terminate", func() error {
					return mgr.TerminateNym(p, live[v])
				}); err != nil {
					return err
				}
				t0 := cpuTime()
				if err := r.tr.span("core.restore", func() error {
					var err error
					live[v], err = mgr.LoadNymVault(p, names[v], password, opts(v), dests[v])
					return err
				}); err != nil {
					return err
				}
				r.restoreMs = append(r.restoreMs, ms(cpuTime()-t0))
				r.loaded(live[v].RestoreStats())
				r.phases(live[v])
				got, err := live[v].AnonVM().Disk().FS().ReadFile(ckptPath)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, last[v]) {
					return &outputMismatch{fmt.Sprintf("round %d: %s restored %d bytes of %s, last write was %d bytes",
						round, names[v], len(got), ckptPath, len(last[v]))}
				}
				r.probe(mgr.Host())
				r.done(1, p.Now())
			}
			return nil
		})
		r.endMeasure()
		r.hostTotals(mgr)
		return err
	}
}

// economyPass: the adaptive mode of experiments.Economy, rebuilt from
// cluster's public API so each call can carry a span. A Zipf-churn
// pool is launched, cold-saved, swept through churn and drain rounds
// under the cluster coordinator, then stopped; every nym stays
// resident throughout. An op is one member-round. When out is not
// nil it receives the same telemetry Economy reports, which the
// cross-check test compares.
func economyPass(nyms, hosts, rounds int, out *experiments.EconomyMode) func(uint64, *passRec) error {
	return func(seed uint64, r *passRec) error {
		eng := sim.NewEngine(seed)
		_, world := webworld.BuildDefault(eng)
		uplink := vnet.LinkConfig{
			Latency:  time.Millisecond,
			Capacity: experiments.EconomyUplinkPerNym * float64(nyms),
		}
		const password = "econ-pw"
		c, err := cluster.New(eng, world, cluster.Config{
			Hosts:         hosts,
			Uplink:        &uplink,
			VaultPassword: password,
			DestFor:       vaultDest,
			Rebalance: cluster.RebalanceConfig{
				Enabled:         true,
				Interval:        experiments.EconomyInterval,
				CostAware:       true,
				BatchIntoSweeps: true,
				MaxMovesPerPass: 8,
			},
		})
		if err != nil {
			return err
		}
		var hvs []*hypervisor.Host
		for _, h := range c.Hosts() {
			hvs = append(hvs, h.Manager().Host())
		}
		memberRounds := rounds + experiments.EconomyDrainRounds
		r.planned = memberRounds * nyms
		var stale []time.Duration
		r.beginMeasure(eng)
		err = drive(eng, "economy-adaptive", func(p *sim.Proc) error {
			if err := r.tr.span("cluster.launch", func() error {
				if err := c.LaunchAll(experiments.EconomySpecs(nyms)); err != nil {
					return err
				}
				return c.AwaitRunning(p, nyms)
			}); err != nil {
				return err
			}
			for _, h := range c.Hosts() {
				for _, m := range h.Fleet().Members() {
					r.phases(m.Nym())
				}
			}
			r.probe(hvs...)
			for _, h := range c.Hosts() {
				if err := r.tr.span("fleet.save_sweep", func() error {
					st, err := h.Fleet().SaveSweep(p, password, experiments.FleetVaultDest)
					r.feed("cold-sweep", st)
					r.add("vault.chunks", float64(st.TotalChunks))
					r.add("vault.new_chunks", float64(st.NewChunks))
					r.add("vault.upload_mb", mb(st.UploadedBytes))
					r.add("nymstate.baseline_mb", mb(st.BaselineBytes))
					return err
				}); err != nil {
					return err
				}
			}
			// One dirty-skip pass per host re-anchors staleness after
			// the serialized cold save (see experiments.Economy).
			for _, h := range c.Hosts() {
				if err := r.tr.span("fleet.sweep_once", func() error {
					_, err := h.Fleet().SweepOnce(p, fleet.SweepConfig{Password: password, DestFor: experiments.FleetVaultDest})
					return err
				}); err != nil {
					return err
				}
			}
			coldSamples := make(map[string]int, hosts)
			for _, h := range c.Hosts() {
				coldSamples[h.Name()] = len(h.Fleet().CheckpointStaleness())
			}
			if err := c.StartSweeps(economySweepConfig(nyms, password)); err != nil {
				return err
			}
			r.probe(hvs...)
			for round := 0; round < rounds; round++ {
				if err := r.tr.span("cluster.round", func() error {
					for _, h := range c.Hosts() {
						for _, m := range h.Fleet().Members() {
							if err := econChurn(r.tr, m, round, nyms); err != nil {
								return err
							}
						}
					}
					p.Sleep(experiments.EconomyInterval)
					return nil
				}); err != nil {
					return err
				}
				r.probe(hvs...)
				r.done(nyms, p.Now())
			}
			if err := r.tr.span("cluster.drain", func() error {
				for d := 0; d < experiments.EconomyDrainRounds; d++ {
					p.Sleep(experiments.EconomyInterval)
					r.done(nyms, p.Now())
				}
				c.StopSweeps()
				c.AwaitSweepsIdle(p)
				return nil
			}); err != nil {
				return err
			}
			r.probe(hvs...)
			for _, h := range c.Hosts() {
				stale = append(stale, h.Fleet().CheckpointStaleness()[coldSamples[h.Name()]:]...)
			}
			return r.tr.span("cluster.stop", func() error { return c.StopAll(p) })
		})
		r.endMeasure()
		rep := c.SweepReport()
		r.feed("cluster-sweeps", rep)
		r.feed("staleness", stale)
		r.add("cluster.rounds", float64(rep.Rounds))
		r.add("cluster.rounds_skipped", float64(rep.RoundsSkipped))
		r.add("cluster.moves_executed", float64(rep.MovesExecuted))
		r.add("cluster.gc_runs", float64(rep.GCRuns))
		r.add("cluster.sweep_errors", float64(len(c.SweepErrors())))
		r.add("vault.chunks", float64(rep.TotalChunks))
		r.add("vault.new_chunks", float64(rep.NewChunks))
		r.add("vault.upload_mb", mb(rep.UploadedBytes))
		r.add("nymstate.baseline_mb", mb(rep.BaselineBytes))
		var mgrs []*core.Manager
		for _, h := range c.Hosts() {
			mgrs = append(mgrs, h.Manager())
			o := h.Fleet()
			fr := o.SweepReport()
			r.feed("fleet-sweeps", fr)
			r.add("fleet.sweep_saves", float64(fr.Saves))
			r.add("fleet.sweep_skips", float64(fr.Skips))
			r.add("fleet.sweep_deferred", float64(fr.Deferred))
			r.add("fleet.sweep_backoffs", float64(fr.Backoffs))
			r.peak("fleet.peak_ram_gib", float64(o.PeakRAMBytes())/(1<<30))
			for _, m := range o.Members() {
				r.add("fleet.restarts", float64(m.Restarts()))
			}
			r.fleetFailures(o)
		}
		r.hostTotals(mgrs...)
		if out != nil {
			*out = economyMode(c, rep, stale)
		}
		return err
	}
}

// economySweepConfig is experiments.Economy's adaptive coordinator
// config: churn-adaptive cadence, a tighter RPO for hot members, and
// idle-slot GC.
func economySweepConfig(nyms int, password string) cluster.SweepConfig {
	return cluster.SweepConfig{
		Interval:         experiments.EconomyInterval,
		Adaptive:         true,
		RPO:              experiments.EconomyRPO,
		TargetDeltaBytes: experiments.EconomyTargetDelta,
		GC:               true,
		Password:         password,
		RPOFor: func(m *fleet.Member) time.Duration {
			if econClass(econIndex(m.Name()), nyms) == "hot" {
				return experiments.EconomyHotRPO
			}
			return experiments.EconomyRPO
		},
	}
}

// vaultDest is the fleet experiments' one-account-per-nym vault
// destination (experiments.FleetVaultDest), keyed by nym name.
func vaultDest(name string) core.VaultDest {
	return core.VaultDest{Providers: []string{"dropbin"}, Account: "acct-" + name, AccountPassword: "cloud-pw"}
}

// econClass, econIndex and econChurn restate experiments.Economy's
// Zipf churn ladder; the cross-check test holds them to it.
func econClass(i, n int) string {
	switch {
	case i < max(1, n/64):
		return "hot"
	case i < max(2, n/8):
		return "warm"
	case i < max(3, n/4):
		return "burst"
	default:
		return "idle"
	}
}

func econIndex(name string) int {
	var i int
	if _, err := fmt.Sscanf(name, "econ%d", &i); err != nil {
		return -1
	}
	return i
}

func econChurn(tr *tracer, m *fleet.Member, round, n int) error {
	i := econIndex(m.Name())
	if m.Nym() == nil || i < 0 {
		return nil
	}
	var path string
	var size int
	switch econClass(i, n) {
	case "hot":
		path, size = "/var/hot-state", 64<<10
	case "warm":
		path, size = "/var/warm-cache", 8<<10
	case "burst":
		if (round+i)%4 != 0 {
			return nil
		}
		path, size = "/var/burst-log", 2<<10
	default:
		return nil
	}
	data := make([]byte, size)
	for j := range data {
		data[j] = byte((i*31 + round*7 + j) % 251)
	}
	return tr.span("vdisk.write", func() error {
		return m.Nym().CommVM().Disk().WriteFile(path, data)
	})
}

// economyMode fills the telemetry experiments.Economy reports for
// one mode, from the same sources it reads.
func economyMode(c *cluster.Cluster, rep cluster.ClusterSweepReport, stale []time.Duration) experiments.EconomyMode {
	toMB := func(b int64) float64 { return float64(b) / float64(guestos.MiB) }
	out := experiments.EconomyMode{
		Mode:          "adaptive",
		Rounds:        rep.Rounds,
		RoundsSkipped: rep.RoundsSkipped,
		Saves:         rep.Saves,
		Skips:         rep.Skips,
		Deferred:      rep.Deferred,
		Errors:        rep.Errors,
		UploadMB:      toMB(rep.UploadedBytes),
		LoginMB:       toMB(rep.LoginBytes),
		WireMB:        toMB(rep.WireBytes()),
		GCRuns:        rep.GCRuns,
		GCReclaimedMB: toMB(rep.GCReclaimedBytes),
		GCWireMB:      toMB(rep.GCWireBytes),
		MovesPlanned:  rep.MovesPlanned,
		MovesExecuted: rep.MovesExecuted,
		MigrationMB:   toMB(c.MigrationWireBytes()),
		StaleP50:      fleet.LatencyPercentile(stale, 0.50),
		StaleP95:      fleet.LatencyPercentile(stale, 0.95),
	}
	out.TotalWireMB = out.WireMB + out.GCWireMB + out.MigrationMB
	for _, d := range stale {
		out.StaleMax = max(out.StaleMax, d)
	}
	return out
}

// outputMismatch is a failed output check: the program returned
// without error but its output is wrong.
type outputMismatch struct{ what string }

func (e *outputMismatch) Error() string { return "output check: " + e.what }
