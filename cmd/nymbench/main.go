// Command nymbench regenerates every table and figure from the
// paper's evaluation (section 5), plus the section 5.1 validation and
// the design ablations.
//
// Usage:
//
//	nymbench [-seed N] [-run all|fig3|fig4|fig5|fig6|fig7|table1|validation|ablations|vault|fleet|shards|elastic|sweeps|economy|partition|censorship|mixnet|summary]
//	         [-nyms N] [-hosts N]   # shards sizing (default 1024 over 4); elastic sizing (default 96 over 2)
//	         [-rounds N]            # sweeps: steady-state rounds (default 8); -nyms sizes the sweep fleet (default 32)
//	                                # economy: churn rounds (default 16); -nyms/-hosts size the pool (default 1024 over 4)
//	         [-json]                # also write BENCH_<run>.json (sim-time results + wall-clock and allocs)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"nymix/internal/experiments"
)

// benchResult is one experiment's machine-readable record: the
// structured sim-time results the renderer prints, plus the real
// wall-clock and allocation cost of producing them. Sim-time results
// are deterministic per seed; wall_ms/allocs are the trajectory the
// bench file exists to track across revisions.
type benchResult struct {
	Name       string  `json:"name"`
	Seed       uint64  `json:"seed"`
	WallMS     float64 `json:"wall_ms"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Result     any     `json:"result"`
}

// benchFile is the top-level BENCH_<run>.json document.
type benchFile struct {
	Run       string        `json:"run"`
	Seed      uint64        `json:"seed"`
	GoVersion string        `json:"go_version"`
	Results   []benchResult `json:"results"`
}

// runner produces one experiment: the rendered text and the
// structured rows behind it, which the JSON emitter serialises
// verbatim.
type runner func(seed uint64) (string, any, error)

// adapt turns an experiment and its renderer into a runner.
func adapt[T any](run func(uint64) (T, error), render func(T) string) runner {
	return func(seed uint64) (string, any, error) {
		res, err := run(seed)
		if err != nil {
			return "", nil, err
		}
		return render(res), res, nil
	}
}

// experiment is one -run target.
type experiment struct {
	name string
	run  runner
}

// experimentsFor returns the experiments in -run all order, with the
// sized ones built for the -nyms/-hosts/-rounds values (0 = the
// experiment's default).
func experimentsFor(nyms, hosts, rounds int) []experiment {
	return []experiment{
		{"fig3", adapt(experiments.Figure3, experiments.RenderFigure3)},
		{"fig4", adapt(experiments.Figure4, experiments.RenderFigure4)},
		{"fig5", adapt(experiments.Figure5, experiments.RenderFigure5)},
		{"fig6", adapt(experiments.Figure6, experiments.RenderFigure6)},
		{"fig7", adapt(experiments.Figure7, experiments.RenderFigure7)},
		{"table1", adapt(experiments.Table1, experiments.RenderTable1)},
		{"validation", adapt(experiments.Validation, experiments.RenderValidation)},
		{"ablations", ablations},
		{"vault", adapt(experiments.VaultIncremental, experiments.RenderVaultIncremental)},
		{"fleet", adapt(func(s uint64) ([]experiments.FleetScale, error) {
			return experiments.FleetRampUp(s)
		}, experiments.RenderFleetRampUp)},
		{"shards", adapt(func(s uint64) ([]experiments.ShardScale, error) {
			return experiments.FleetShards(s, nyms, hosts)
		}, experiments.RenderFleetShards)},
		{"elastic", adapt(func(s uint64) (*experiments.ElasticResult, error) {
			return experiments.Elastic(s, nyms, hosts)
		}, experiments.RenderElastic)},
		{"sweeps", adapt(func(s uint64) (experiments.SweepSteady, error) {
			return experiments.SweepSteadyState(s, nyms, rounds)
		}, experiments.RenderSweepSteadyState)},
		{"economy", adapt(func(s uint64) (*experiments.EconomyResult, error) {
			res, err := experiments.Economy(s, nyms, hosts, rounds)
			if err != nil {
				return nil, err
			}
			// The economy run is also the gate: adaptive cadence must
			// strictly beat fixed-interval on total wire with staleness
			// p95 no worse, or the bench itself fails.
			return res, res.Gate()
		}, experiments.RenderEconomy)},
		{"partition", adapt(experiments.Partition, experiments.RenderPartition)},
		{"censorship", adapt(experiments.CensorshipDPI, experiments.RenderCensorshipDPI)},
		{"mixnet", adapt(experiments.MixnetFrontier, experiments.RenderMixnetFrontier)},
		{"summary", summary},
	}
}

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed")
	nyms := flag.Int("nyms", 0, "shards/economy: fleet size (0 = 1024); elastic: burst size (0 = 96); sweeps: fleet size (0 = 32)")
	hosts := flag.Int("hosts", 0, "shards/economy: pool size (0 = 4); elastic: initial pool (0 = 2)")
	rounds := flag.Int("rounds", 0, "sweeps: steady-state rounds (0 = 8); economy: churn rounds (0 = 16)")
	emitJSON := flag.Bool("json", false, "write BENCH_<run>.json next to the text output")

	names := []string{"all"}
	for _, e := range experimentsFor(0, 0, 0) {
		names = append(names, e.name)
	}
	run := flag.String("run", "all", "experiment to run: "+strings.Join(names, ", "))
	flag.Parse()

	selected := experimentsFor(*nyms, *hosts, *rounds)
	if *run != "all" {
		selected = slices.DeleteFunc(selected, func(e experiment) bool { return e.name != *run })
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "nymbench: unknown experiment %q\n", *run)
			os.Exit(2)
		}
	}
	bench := benchFile{Run: *run, Seed: *seed, GoVersion: runtime.Version()}
	for _, r := range selected {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, result, err := r.run(*seed)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nymbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		bench.Results = append(bench.Results, benchResult{
			Name:       r.name,
			Seed:       *seed,
			WallMS:     float64(wall.Microseconds()) / 1000,
			Allocs:     after.Mallocs - before.Mallocs,
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
			Result:     result,
		})
	}
	if *emitJSON {
		path := fmt.Sprintf("BENCH_%s.json", *run)
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "nymbench: marshal %s: %v\n", path, err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "nymbench: write %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "nymbench: wrote %s\n", path)
	}
}

// ablations runs the four design ablations as one report.
func ablations(s uint64) (string, any, error) {
	exposure := experiments.AblationGuardExposure(s, 0.05)
	out := experiments.RenderGuardExposure(exposure, 0.05)
	stains, err := experiments.AblationStaining(s)
	if err != nil {
		return "", nil, err
	}
	out += "\n" + experiments.RenderStaining(stains)
	linkage, err := experiments.AblationLinkage(s)
	if err != nil {
		return "", nil, err
	}
	out += "\n" + experiments.RenderLinkage(linkage)
	buddies := experiments.AblationBuddies(s, 4, 12)
	out += "\n" + experiments.RenderBuddies(buddies, 4)
	return out, map[string]any{
		"guard_exposure": exposure,
		"staining":       stains,
		"linkage":        linkage,
		"buddies":        buddies,
	}, nil
}

// summary reproduces the abstract's headline numbers from the
// underlying experiments.
func summary(seed uint64) (string, any, error) {
	f3, err := experiments.Figure3(seed)
	if err != nil {
		return "", nil, err
	}
	slope := (f3[len(f3)-1].UsedAfterMB - f3[0].UsedAfterMB) / float64(len(f3)-1)
	f7, err := experiments.Figure7(seed)
	if err != nil {
		return "", nil, err
	}
	var freshTotal float64
	for _, r := range f7 {
		if r.Config == "fresh" {
			freshTotal = r.Total().Seconds()
		}
	}
	res := struct {
		PerNymboxMemoryMB float64 `json:"per_nymbox_memory_mb"`
		FreshLoadSeconds  float64 `json:"fresh_load_seconds"`
	}{slope, freshTotal}
	return fmt.Sprintf(
		"# Abstract claims\nper-nymbox memory: %.0f MB (paper: ~600 MB)\nfresh nymbox load: %.1f s (paper: 15-25 s)\n",
		slope, freshTotal), res, nil
}
