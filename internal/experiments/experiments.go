package experiments

import (
	"fmt"
	"strings"

	"nymix/internal/cluster"
	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/hypervisor"
	"nymix/internal/sim"
	"nymix/internal/webworld"
)

// NewRig builds the standard evaluation setup: the default world and
// a Nymix host with the paper's 16 GB / quad-core configuration.
func NewRig(seed uint64) (*sim.Engine, *webworld.World, *core.Manager, error) {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	mgr, err := core.NewManager(eng, world, hypervisor.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	return eng, world, mgr, nil
}

// NewFleetRig builds the single-host fleet setup: the default world,
// one FleetHostConfig host, and a supervisor running the default
// restart policy over it.
func NewFleetRig(seed uint64) (*sim.Engine, *core.Manager, *fleet.Orchestrator, error) {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	mgr, err := core.NewManager(eng, world, FleetHostConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	return eng, mgr, fleet.New(mgr, fleet.Config{Restart: fleet.DefaultRestartPolicy()}), nil
}

// NewClusterRig builds the multi-host setup: the default world and a
// cluster of cfg's hosts on it.
func NewClusterRig(seed uint64, cfg cluster.Config) (*sim.Engine, *webworld.World, *cluster.Cluster, error) {
	eng := sim.NewEngine(seed)
	_, world := webworld.BuildDefault(eng)
	c, err := cluster.New(eng, world, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return eng, world, c, nil
}

// RunProc executes fn as a simulated process, drains the engine, and
// returns fn's error.
func RunProc(eng *sim.Engine, name string, fn func(p *sim.Proc) error) error {
	var err error
	eng.Go(name, func(p *sim.Proc) { err = fn(p) })
	eng.Run()
	return err
}

// table is a tiny fixed-width renderer for paper-style output.
type table struct {
	b strings.Builder
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			t.b.WriteString("  ")
		}
		fmt.Fprintf(&t.b, "%-14s", c)
	}
	t.b.WriteByte('\n')
}

func (t *table) String() string { return t.b.String() }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
