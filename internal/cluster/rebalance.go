package cluster

import (
	"time"

	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
)

// RebalanceConfig tunes the hot-host rebalancer.
type RebalanceConfig struct {
	// Enabled arms the daemon; a disabled rebalancer costs nothing.
	Enabled bool
	// Interval spaces rebalance passes (default 30s).
	Interval time.Duration
	// HotShare marks a host hot when its reserved share of budget
	// exceeds it (default 0.85). Explicit values above 1 are rejected.
	HotShare float64
	// ColdShare is the ceiling a destination must sit under to
	// receive a migrated nym (default 0.6, clamped strictly below
	// HotShare) — migrating onto a warm host would just move the hot
	// spot. Explicit values at or above HotShare are rejected: such a
	// pair would happily "rebalance" onto hosts as hot as the source.
	ColdShare float64
	// MaxMovesPerPass bounds migrations per pass (default 2), so a
	// pass is a nudge, not a stampede of simultaneous vault restores.
	MaxMovesPerPass int
	// CostAware picks each pass's victim by priced wire per byte of
	// pressure relieved — vault-index restore bytes plus unsaved
	// dirty delta, over footprint — instead of the longest-running
	// member. Cheap moves (warm vault, little dirt) win over moves
	// that would re-ship a nym's whole archive.
	CostAware bool
	// BatchIntoSweeps defers approved moves into the sweep
	// coordinator's idle slots (provider token held, nothing dirty to
	// save) instead of executing them on the rebalance timer — the
	// migration wire rides windows the cadence already paid for.
	// Without a running coordinator the queue would never drain, so
	// passes execute moves directly while no coordinator is
	// installed.
	BatchIntoSweeps bool
}

func (r *RebalanceConfig) fillDefaults() error {
	if r.Interval <= 0 {
		r.Interval = 30 * time.Second
	}
	if r.HotShare < 0 || r.HotShare > 1 {
		return nymerr.Newf(CodeBadWatermarks,
			"cluster: rebalance HotShare %.2f outside (0, 1]", r.HotShare)
	}
	if r.HotShare == 0 {
		r.HotShare = 0.85
	}
	if r.ColdShare < 0 {
		return nymerr.Newf(CodeBadWatermarks,
			"cluster: rebalance ColdShare %.2f negative", r.ColdShare)
	}
	if r.ColdShare == 0 {
		// The default cold watermark must sit strictly under the hot
		// one even when HotShare was set explicitly low: a 0.5 hot
		// watermark with the plain 0.6 default would declare every
		// destination at once too warm to receive and cool enough to
		// shed, and the pass would shuttle members onto hosts hotter
		// than the watermark that made them victims.
		r.ColdShare = 0.6
		if r.ColdShare >= r.HotShare {
			r.ColdShare = 0.75 * r.HotShare
		}
	} else if r.ColdShare >= r.HotShare {
		return nymerr.Newf(CodeBadWatermarks,
			"cluster: rebalance ColdShare %.2f must be strictly under HotShare %.2f",
			r.ColdShare, r.HotShare)
	}
	if r.MaxMovesPerPass <= 0 {
		r.MaxMovesPerPass = 2
	}
	return nil
}

// plannedMove is one approved rebalance move awaiting an idle sweep
// slot. The destination is re-validated at execution time — slots may
// run long after planning, and the pool may have shifted under it.
type plannedMove struct {
	name string
	dst  string
}

// planMove computes the next rebalance move — the hottest host that
// actually has a migratable member AND a cold destination able to
// admit it — or nils when no move is possible. Arming (rebalanceNeeded)
// and execution (rebalancePass) share this one planner, so the timer
// can never re-arm for a pass that would make zero moves: a hot host
// full of ephemeral nyms, or a cold host without admission room, does
// not count as work. skip holds member names this pass already tried
// (or queued): without it a victim whose migration failed would be
// re-picked by every remaining move budget in the same pass.
func (c *Cluster) planMove(skip map[string]bool) (*fleet.Member, *Host) {
	if !c.cfg.Rebalance.Enabled {
		return nil, nil
	}
	var bestM *fleet.Member
	var bestDst *Host
	var bestShare float64
	for _, h := range c.hosts {
		// Cordoned and draining hosts belong to the autoscaler's drain
		// path; the rebalancer must not fight it over their members.
		if !h.placeable() {
			continue
		}
		share := h.ReservedShare()
		if share <= c.cfg.Rebalance.HotShare || share <= bestShare {
			continue
		}
		m := c.pickVictim(h, skip)
		if m == nil {
			continue
		}
		dst := c.coldDestination(h, m)
		if dst == nil {
			continue
		}
		bestM, bestDst, bestShare = m, dst, share
	}
	return bestM, bestDst
}

// rebalanceNeeded reports whether a pass could do useful work. Moves
// already queued for idle slots don't count: re-planning them every
// Interval would queue the same member twice.
func (c *Cluster) rebalanceNeeded() bool {
	m, _ := c.planMove(c.moveQueued)
	return m != nil
}

// maybeScheduleRebalance arms the rebalance daemon (sim.Daemon) one
// pass Interval out, only while a pass could help, so a balanced (or
// idle) cluster leaves the event queue empty and the engine drainable.
func (c *Cluster) maybeScheduleRebalance() {
	if c.rebalancer.Busy() || !c.rebalanceNeeded() {
		return
	}
	c.rebalancer.Arm(c.cfg.Rebalance.Interval, func() func(*sim.Proc) {
		if !c.rebalanceNeeded() {
			c.notify() // AwaitSettled watches the daemon; wake it
			return nil
		}
		return c.rebalancePass
	})
}

// rebalancePass plans up to MaxMovesPerPass moves off the hottest
// hosts toward the least-loaded cold hosts. With BatchIntoSweeps (and
// a coordinator running) approved moves queue for idle sweep slots;
// otherwise each executes here. Migration failures are absorbed: a
// failed destination restore re-queues the nym cluster-wide from its
// vault checkpoint (see MigrateNym), a failed source save leaves the
// nym where it was — and the victim is skipped for the rest of this
// pass, so the budget explores other members instead of burning every
// remaining move on the same failure.
func (c *Cluster) rebalancePass(p *sim.Proc) {
	attempted := make(map[string]bool, len(c.moveQueued))
	for name := range c.moveQueued {
		attempted[name] = true
	}
	batch := c.cfg.Rebalance.BatchIntoSweeps && c.sweepCfg != nil
	for moves := 0; moves < c.cfg.Rebalance.MaxMovesPerPass; moves++ {
		victim, dst := c.planMove(attempted)
		if victim == nil {
			return
		}
		attempted[victim.Name()] = true
		c.movesPlanned++
		if batch {
			c.pendingMoves = append(c.pendingMoves, plannedMove{name: victim.Name(), dst: dst.name})
			c.moveQueued[victim.Name()] = true
			continue
		}
		c.MigrateNym(p, victim.Name(), dst.name)
	}
}

// pickVictim selects the host's next move candidate: the cheapest
// priced move under CostAware, the longest-running persistent member
// otherwise. Members already mid-migration or in skip are excluded.
func (c *Cluster) pickVictim(h *Host, skip map[string]bool) *fleet.Member {
	if c.cfg.Rebalance.CostAware {
		return c.cheapestVictim(h, skip)
	}
	return c.coldestPersistent(h, skip)
}

// coldestPersistent returns the host's longest-running persistent
// member — the nym least likely to be mid-interaction, and the one
// whose vault checkpoint is most amortized — or nil.
func (c *Cluster) coldestPersistent(h *Host, skip map[string]bool) *fleet.Member {
	var coldest *fleet.Member
	for _, m := range h.orch.Members() {
		if !c.movable(m, skip) {
			continue
		}
		if coldest == nil || m.RunningAt() < coldest.RunningAt() {
			coldest = m
		}
	}
	return coldest
}

// cheapestVictim prices every movable member on the host by the wire
// its migration would actually ship — core.MigrationCost's vault-index
// restore bytes plus the unsaved dirty delta — per byte of host
// pressure relieved (the footprint), and returns the minimum. A cold
// index prices as a full-footprint restore rather than as free: a nym
// this manager has never saved is the most expensive possible move,
// not the best one.
func (c *Cluster) cheapestVictim(h *Host, skip map[string]bool) *fleet.Member {
	var best *fleet.Member
	var bestScore float64
	for _, m := range h.orch.Members() {
		if !c.movable(m, skip) {
			continue
		}
		fp := m.Footprint()
		if fp <= 0 {
			continue
		}
		cost := h.mgr.MigrationCost(m.Nym(), c.cfg.DestFor(m.Name()))
		wire := cost.Wire()
		if cost.RestoreBytes == 0 {
			wire += fp
		}
		score := float64(wire) / float64(fp)
		if best == nil || score < bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// movable reports whether the member is a legal rebalance victim.
func (c *Cluster) movable(m *fleet.Member, skip map[string]bool) bool {
	if m.State() != fleet.StateRunning || m.Nym() == nil || m.Nym().Model() != core.ModelPersistent {
		return false
	}
	return !c.migrating[m.Name()] && !skip[m.Name()]
}

// coldDestination returns the least-loaded host under the cold
// watermark that can admit the member's footprint and wire rate, or
// nil.
func (c *Cluster) coldDestination(src *Host, m *fleet.Member) *Host {
	return c.destinationUnder(src, m.Footprint(), m.WireRate(), c.cfg.Rebalance.ColdShare)
}

// destinationUnder returns the least-loaded placeable host (excluding
// src) whose reserved share sits strictly under shareCeiling and that
// can admit the footprint, or nil. The rebalancer caps the ceiling at
// its cold watermark (migrating onto a warm host would just move the
// hot spot); a drain passes a ceiling above 1 — any host with room
// will do.
func (c *Cluster) destinationUnder(src *Host, footprint, wireRate int64, shareCeiling float64) *Host {
	var best *Host
	var bestShare float64
	for _, h := range c.hosts {
		if h == src || !h.placeable() || !h.orch.CanAdmit(footprint) {
			continue
		}
		if wireRate > 0 && !h.orch.CanAdmitWire(wireRate) {
			continue
		}
		share := h.ReservedShare()
		if share >= shareCeiling {
			continue
		}
		if best == nil || share < bestShare {
			best, bestShare = h, share
		}
	}
	return best
}
