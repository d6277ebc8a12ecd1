// Command hostbench measures the host cost of the Nymix simulator:
// how much host CPU time and Go heap the program spends to produce its
// simulated-time results, end to end and per layer. See README.md.
//
//	hostbench --workload boot|checkpoint|economy --seed N --seconds S --trace 0|1
//	hostbench --record-golden FIRST:LAST > golden.json
//
// A run starts passes, one process each, until --seconds of wall time
// have gone by. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// golden maps workload name to seed (decimal) to the recorded
// sim_digest of one pass.
func golden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: boot, checkpoint or economy")
	seed := flag.Uint64("seed", 1, "input and engine seed")
	seconds := flag.Int("seconds", 10, "wall seconds to keep starting passes for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced passes")
	onePass := flag.Bool("pass", false, "run one pass in this process and print its record")
	record := flag.String("record-golden", "", "FIRST:LAST: print golden.json for these seeds instead of measuring")
	flag.Parse()
	// The simulator runs one goroutine at a time. One P keeps the
	// garbage collector on the same CPU as the program, so process CPU
	// time counts its work once and does not depend on how idle a
	// second CPU happens to be.
	runtime.GOMAXPROCS(1)

	if *record != "" {
		if err := recordGolden(*record); err != nil {
			fail(err)
		}
		return
	}
	w, ok := workloadNamed(*workloadName)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hostbench: need --workload boot|checkpoint|economy, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if *onePass {
		out, err := json.Marshal(runPass(w, *seed, *trace == 1))
		if err != nil {
			fail(err)
		}
		fmt.Println(string(out))
		return
	}
	g, err := golden()
	if err != nil {
		fail(err)
	}
	res := runWorkload(w.name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	res.check(g[w.name][strconv.FormatUint(*seed, 10)])
	res.report(os.Stdout)
	out, err := json.Marshal(res.summary())
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hostbench:", err)
	os.Exit(1)
}

// runPass runs one pass in this process, with the heap sampler on.
func runPass(w workload, seed uint64, traced bool) passOut {
	hs := startHeapSampler()
	before := runtime.NumGoroutine()
	r := newPassRec(traced)
	if err := w.run(seed, r); err != nil {
		r.fail(err)
	}
	left := runtime.NumGoroutine() - before
	hs.Stop()
	return r.out(hs.peak.Load(), left)
}

// heapSampler tracks the peak live Go heap: the largest heap the
// garbage collector marked live, sampled from runtime/metrics every
// millisecond by its own goroutine.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the sampler and waits for its goroutine to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.wg.Wait()
}

// spawnPass runs one pass in a child process. Each pass gets a fresh
// process because a finished world is never freed: simulated processes
// still parked when the engine drains keep their goroutines, and with
// them the world, alive for the life of the process.
func spawnPass(workload string, seed uint64, traced bool) (passOut, error) {
	self, err := os.Executable()
	if err != nil {
		return passOut{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, "--pass", "--workload", workload, "--seed", strconv.FormatUint(seed, 10), "--trace", tr)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return passOut{}, fmt.Errorf("pass process: %w", err)
	}
	var p passOut
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &p); err != nil {
		return passOut{}, fmt.Errorf("pass record: %w", err)
	}
	return p, nil
}

// result is one run: the passes of one workload at one seed.
type result struct {
	workload string
	seed     uint64
	passes   []passOut
	crashed  error  // a pass process that failed to report
	golden   string // recorded digest, "" when none is recorded
	mismatch string // why the sim outputs failed the golden check
}

// runWorkload starts passes, one process at a time, until the budget
// of wall time is spent: at least one pass, and in traced mode at
// least one traced and one untraced pass, alternating, so the tracing
// overhead is measured in the same run. A failed pass ends the run.
func runWorkload(workload string, seed uint64, budget time.Duration, trace bool) *result {
	res := &result{workload: workload, seed: seed}
	minPasses := 1
	if trace {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < budget; i++ {
		p, err := spawnPass(workload, seed, trace && i%2 == 0)
		if err != nil {
			res.crashed = err
			return res
		}
		res.passes = append(res.passes, p)
		if p.OK < p.Planned {
			return res
		}
	}
	return res
}

// check compares every pass's sim_digest with the first pass's and
// with the recorded golden.
func (res *result) check(golden string) {
	res.golden = golden
	if len(res.passes) == 0 {
		return
	}
	first := res.passes[0].Digest
	for i, p := range res.passes {
		if p.Digest != first {
			res.mismatch = fmt.Sprintf("pass %d digest %s differs from pass 0 digest %s", i, p.Digest, first)
			return
		}
	}
	if golden != "" && first != golden {
		res.mismatch = fmt.Sprintf("sim_digest %s differs from golden %s", first, golden)
	}
}

// attempted counts the planned ops of every pass; a pass process that
// crashed counts as one failed op.
func (res *result) attempted() (n int) {
	for _, p := range res.passes {
		n += p.Planned
	}
	if res.crashed != nil {
		n++
	}
	return n
}

// failed counts failed ops; a golden or determinism mismatch fails
// every op of the run.
func (res *result) failed() (n int) {
	if res.mismatch != "" {
		return res.attempted()
	}
	for _, p := range res.passes {
		n += p.Planned - p.OK
	}
	if res.crashed != nil {
		n++
	}
	return n
}

// selectPasses returns the passes of one kind (traced or untraced).
func (res *result) selectPasses(traced bool) []passOut {
	var out []passOut
	for _, p := range res.passes {
		if p.Traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// endToEnd holds the user-visible metrics over a set of passes.
type endToEnd struct {
	opsPerS, setupS, peakHeapMB, allocMB float64
	save, restore                        []float64
	passes                               int
}

func summarize(ps []passOut) endToEnd {
	var e endToEnd
	var rate, setup, heap, alloc []float64
	for _, p := range ps {
		if p.MeasuredS > 0 {
			rate = append(rate, float64(p.OK)/p.MeasuredS)
		}
		setup = append(setup, p.SetupS)
		heap = append(heap, p.PeakHeapMB)
		alloc = append(alloc, p.AllocMB)
		e.save = append(e.save, p.SaveMs...)
		e.restore = append(e.restore, p.RestoreMs...)
	}
	e.opsPerS, e.setupS = median(rate), median(setup)
	e.peakHeapMB, e.allocMB = median(heap), median(alloc)
	e.passes = len(ps)
	return e
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryJSON struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary is the final JSON line: the end-to-end metrics of the
// untraced passes, or with tracing on the per-layer metrics of the
// traced passes.
func (res *result) summary() summaryJSON {
	s := summaryJSON{Attempted: res.attempted(), Failed: res.failed(), Metrics: map[string]metric{}}
	s.Correct = s.Failed == 0
	if traced := res.selectPasses(true); len(traced) > 0 {
		for _, l := range layerMetrics(traced) {
			s.Metrics[l.name] = metric{l.value, l.unit}
		}
		return s
	}
	e := summarize(res.passes)
	s.Metrics["ops_per_s"] = metric{e.opsPerS, "op/s"}
	s.Metrics["setup_s"] = metric{e.setupS, "s"}
	s.Metrics["peak_heap_mb"] = metric{e.peakHeapMB, "MB"}
	s.Metrics["alloc_mb"] = metric{e.allocMB, "MB"}
	return s
}

type layerMetric struct {
	name, unit string
	value      float64
}

// layerDefs lists every per-layer metric with its unit, in report
// order.
func layerDefs() []layerMetric {
	var defs []layerMetric
	for _, k := range spanKinds {
		defs = append(defs,
			layerMetric{name: k + ".count", unit: "count"},
			layerMetric{name: k + ".host_ms", unit: "ms"},
			layerMetric{name: k + ".self_ms", unit: "ms"},
			layerMetric{name: k + ".alloc_mb", unit: "MB"},
			layerMetric{name: k + ".gc_cpu_ms", unit: "ms"})
	}
	for _, d := range [][2]string{
		{"runtime.gc_cpu_frac", "ratio"}, {"runtime.mallocs", "count"}, {"runtime.gc_cycles", "count"},
		{"runtime.goroutines_left", "count"},
		{"sim.events", "count"}, {"sim.sim_s", "s"}, {"sim.host_us_per_event", "us"},
		{"mem.merged_pages", "count"}, {"mem.cow_breaks", "count"}, {"mem.saved_mb", "MB"},
		{"mem.scrubbed_mb", "MB"}, {"mem.pending_scan_max", "count"},
		{"core.boot_vm_sim_s", "s"}, {"core.start_anon_sim_s", "s"},
		{"cpusched.peak_running", "count"}, {"cpusched.utilization", "ratio"},
		{"vault.chunks", "count"}, {"vault.new_chunks", "count"}, {"vault.dedup_frac", "ratio"},
		{"vault.upload_mb", "MB"}, {"vault.download_mb", "MB"}, {"vault.logical_mb", "MB"},
		{"nymstate.baseline_mb", "MB"}, {"cloud.round_trips", "count"}, {"vnet.uplink_wire_mb", "MB"},
		{"fleet.peak_ram_gib", "GiB"}, {"fleet.restarts", "count"}, {"fleet.failures", "count"},
		{"fleet.sweep_saves", "count"}, {"fleet.sweep_skips", "count"},
		{"fleet.sweep_deferred", "count"}, {"fleet.sweep_backoffs", "count"},
		{"cluster.rounds", "count"}, {"cluster.rounds_skipped", "count"},
		{"cluster.moves_executed", "count"}, {"cluster.gc_runs", "count"}, {"cluster.sweep_errors", "count"},
	} {
		defs = append(defs, layerMetric{name: d[0], unit: d[1]})
	}
	return defs
}

// layerMetrics gives each per-layer metric its median over the traced
// passes. Spans cover the whole pass, set-up included.
func layerMetrics(ps []passOut) []layerMetric {
	defs := layerDefs()
	for i := range defs {
		xs := make([]float64, len(ps))
		for j, p := range ps {
			xs[j] = p.Layer[defs[i].name]
		}
		defs[i].value = median(xs)
	}
	return defs
}

// report prints the human-readable run report: each pass, every
// end-to-end metric with its unit, sample counts beside percentiles,
// the failure breakdown, the digest check, and with tracing the
// per-layer table and the tracing overhead.
func (res *result) report(w io.Writer) {
	var b strings.Builder
	untraced, traced := res.selectPasses(false), res.selectPasses(true)
	fmt.Fprintf(&b, "# hostbench %s seed %d: %d passes (%d traced), one process each, GOMAXPROCS 1\n",
		res.workload, res.seed, len(res.passes), len(traced))
	for i, p := range res.passes {
		fmt.Fprintf(&b, "  pass %d traced=%v set-up %.3fs measured %.3fs ops %d/%d (%.3f op/s) peak live heap %.1f MB alloc %.1f MB\n",
			i, p.Traced, p.SetupS, p.MeasuredS, p.OK, p.Planned, float64(p.OK)/p.MeasuredS, p.PeakHeapMB, p.AllocMB)
	}
	if res.crashed != nil {
		fmt.Fprintf(&b, "  pass %d crashed: %v\n", len(res.passes), res.crashed)
	}
	status := "matches golden"
	switch {
	case res.mismatch != "":
		status = "MISMATCH: " + res.mismatch
	case res.golden == "":
		status = "no golden recorded for this seed; all passes agree"
	}
	digest := ""
	if len(res.passes) > 0 {
		digest = res.passes[0].Digest
	}
	e := summarize(untraced)
	fmt.Fprintf(&b, "sim_digest           %s  (%s)\n", digest, status)
	fmt.Fprintf(&b, "ops_per_s            %.4f op/s  (per host CPU second, median of %d untraced passes)\n", e.opsPerS, e.passes)
	fmt.Fprintf(&b, "setup_s              %.4f s  (host CPU, median of %d set-ups)\n", e.setupS, e.passes)
	fmt.Fprintf(&b, "peak_heap_mb         %.1f MB  (peak live heap, median over passes)\n", e.peakHeapMB)
	fmt.Fprintf(&b, "alloc_mb             %.1f MB  (allocated by the measured phase, median over passes)\n", e.allocMB)
	att, fl := res.attempted(), res.failed()
	fmt.Fprintf(&b, "error_rate           %.4f ratio  (%d of %d ops failed)\n", float64(fl)/float64(max(att, 1)), fl, att)
	codes := map[string]int{}
	for _, p := range res.passes {
		for c, n := range p.Codes {
			codes[c] += n
		}
	}
	names := make([]string, 0, len(codes))
	for c := range codes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		fmt.Fprintf(&b, "  failed by %-24s %d\n", c, codes[c])
	}
	for _, l := range []struct {
		name string
		xs   []float64
	}{{"save_ms", e.save}, {"restore_ms", e.restore}} {
		if len(l.xs) == 0 {
			continue
		}
		p50, _ := percentile(l.xs, 0.50)
		p90, beyond := percentile(l.xs, 0.90)
		fmt.Fprintf(&b, "%-20s %.3f ms  (host CPU, n=%d)\n", l.name+"_p50", p50, len(l.xs))
		fmt.Fprintf(&b, "%-20s %.3f ms  (host CPU, n=%d, %d beyond)\n", l.name+"_p90", p90, len(l.xs), beyond)
	}
	if len(traced) > 0 {
		te := summarize(traced)
		fmt.Fprintf(&b, "tracing overhead     %.4f op/s  (traced %.4f minus untraced %.4f)\n",
			te.opsPerS-e.opsPerS, te.opsPerS, e.opsPerS)
		for _, l := range layerMetrics(traced) {
			if l.value != 0 {
				fmt.Fprintf(&b, "  %-28s %14.4f %s\n", l.name, l.value, l.unit)
			}
		}
	}
	io.WriteString(w, b.String())
}

// recordGolden runs one untraced pass per workload and seed, each in
// its own process, and prints the golden file.
func recordGolden(spec string) error {
	first, last, ok := strings.Cut(spec, ":")
	lo, err1 := strconv.ParseUint(first, 10, 64)
	hi, err2 := strconv.ParseUint(last, 10, 64)
	if !ok || err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("--record-golden wants FIRST:LAST, got %q", spec)
	}
	g := map[string]map[string]string{}
	for _, w := range workloads() {
		g[w.name] = map[string]string{}
		for seed := lo; seed <= hi; seed++ {
			p, err := spawnPass(w.name, seed, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if p.OK < p.Planned {
				return fmt.Errorf("%s seed %d: %d of %d ops failed: %v", w.name, seed, p.Planned-p.OK, p.Planned, p.Codes)
			}
			g[w.name][strconv.FormatUint(seed, 10)] = p.Digest
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs and how many
// samples lie strictly above it.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := max(0, min(int(math.Ceil(q*float64(len(s))))-1, len(s)-1))
	v = s[rank]
	for _, x := range s[rank+1:] {
		if x > v {
			beyond++
		}
	}
	return v, beyond
}
