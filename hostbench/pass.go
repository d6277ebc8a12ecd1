package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	"nymix/internal/core"
	"nymix/internal/fleet"
	"nymix/internal/hypervisor"
	"nymix/internal/nymerr"
	"nymix/internal/sim"
	"nymix/internal/vault"
)

// passRec records one pass: one run of a workload's fixed, seeded op
// sequence in a freshly built world. Host-side numbers (times,
// allocations) vary from pass to pass; everything fed to the digest
// is simulated-time output and must not.
type passRec struct {
	tr *tracer // nil for an untraced pass

	start    time.Duration // process CPU time, see cpuTime
	measure  time.Duration
	setup    time.Duration
	measured time.Duration
	// probeCPU is the benchmark's own reading of host state inside the
	// measured phase; it is not the workload's cost and is left out.
	probeCPU time.Duration
	alloc0   uint64
	alloc    uint64 // bytes allocated by the measured phase

	planned, ok int
	// codes tallies the failure that ended the pass, by nymerr code.
	codes map[string]int

	saveMs, restoreMs []float64

	digest hash.Hash
	counts map[string]float64
	eng    *sim.Engine
	rt0    runtimeCounters
	rt     runtimeCounters // delta over the whole pass
}

func newPassRec(traced bool) *passRec {
	r := &passRec{
		start:  cpuTime(),
		codes:  make(map[string]int),
		digest: sha256.New(),
		counts: make(map[string]float64),
		rt0:    readRuntime(),
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// beginMeasure ends set-up and starts the measured phase.
func (r *passRec) beginMeasure(eng *sim.Engine) {
	r.eng = eng
	r.measure = cpuTime()
	r.setup = r.measure - r.start
	r.alloc0 = readRuntime().allocBytes
}

// endMeasure closes the measured phase once the engine has drained.
func (r *passRec) endMeasure() {
	r.measured = cpuTime() - r.measure - r.probeCPU
	rt := readRuntime()
	r.alloc = rt.allocBytes - r.alloc0
	r.rt = runtimeCounters{
		gcCPU:    rt.gcCPU - r.rt0.gcCPU,
		totalCPU: rt.totalCPU - r.rt0.totalCPU,
		idleCPU:  rt.idleCPU - r.rt0.idleCPU,
		mallocs:  rt.mallocs - r.rt0.mallocs,
		gcCycles: rt.gcCycles - r.rt0.gcCycles,
	}
}

// feed adds one labelled simulated-time output to the pass digest.
func (r *passRec) feed(label string, v any) { fmt.Fprintf(r.digest, "%s %+v\n", label, v) }

// done records n ops completing at simulated time now.
func (r *passRec) done(n int, now sim.Time) {
	r.ok += n
	r.feed("op", fmt.Sprintf("%d@%d", n, now))
}

// fail tallies the error that ended the pass by its registered code.
func (r *passRec) fail(err error) {
	code := string(nymerr.Classify(err))
	var mismatch *outputMismatch
	switch {
	case errors.As(err, &mismatch):
		code = "output_mismatch"
	case code == "":
		code = "unclassified"
	}
	r.codes[code]++
	r.feed("failure", code)
}

func (r *passRec) add(name string, v float64) { r.counts[name] += v }

func (r *passRec) peak(name string, v float64) { r.counts[name] = math.Max(r.counts[name], v) }

// probe reads the hosts' memory and CPU-scheduler state at a call
// boundary of the measured phase. MemStats walks every shared
// frame, so its CPU time is kept out of the measurement.
func (r *passRec) probe(hosts ...*hypervisor.Host) {
	t0 := cpuTime()
	defer func() { r.probeCPU += cpuTime() - t0 }()
	var saved, pending int64
	var util float64
	for _, h := range hosts {
		ms := h.MemStats()
		r.feed("mem", ms)
		saved += ms.SavedBytes
		pending += ms.PendingScan
		util = math.Max(util, h.CPU().Utilization())
	}
	r.peak("mem.saved_mb", mb(saved))
	r.peak("mem.pending_scan_max", float64(pending))
	r.peak("cpusched.utilization", util)
}

// phases adds a started nym's boot and anonymizer-start phases.
func (r *passRec) phases(n *core.Nym) {
	ph := n.Phases()
	r.feed("phases", ph)
	r.add("core.boot_vm_sim_s", ph.BootVM.Seconds())
	r.add("core.start_anon_sim_s", ph.StartAnon.Seconds())
}

// saved adds one vault save's stats.
func (r *passRec) saved(st vault.SaveStats) {
	r.feed("save", st)
	r.add("vault.chunks", float64(st.TotalChunks))
	r.add("vault.new_chunks", float64(st.NewChunks))
	r.add("vault.upload_mb", mb(st.UploadedBytes))
	r.add("vault.logical_mb", mb(st.LogicalBytes))
	r.add("nymstate.baseline_mb", mb(st.BaselineWireBytes))
}

// loaded adds one vault restore's stats.
func (r *passRec) loaded(st vault.LoadStats) {
	r.feed("load", st)
	r.add("vault.download_mb", mb(st.DownloadedBytes))
}

// fleetFailures adds an orchestrator's classified failure records.
func (r *passRec) fleetFailures(o *fleet.Orchestrator) {
	for _, f := range o.Failures() {
		r.feed("fleet-failure", f.Op+" "+string(f.Code))
		r.add("fleet.failures", 1)
	}
}

// hostTotals adds the end-of-pass lifetime counters of every host,
// and the cloud providers' round trips (one shared set per world).
func (r *passRec) hostTotals(mgrs ...*core.Manager) {
	for _, m := range mgrs {
		h := m.Host()
		ms := h.MemStats()
		r.feed("mem-final", ms)
		r.add("mem.merged_pages", float64(ms.MergedPages))
		r.add("mem.cow_breaks", float64(ms.COWBreaks))
		r.add("mem.scrubbed_mb", mb(ms.ScrubbedBytes))
		r.peak("cpusched.peak_running", float64(h.CPU().PeakRunning()))
		r.add("vnet.uplink_wire_mb", mb(h.Uplink().WireBytesTotal()))
	}
	for _, name := range []string{"dropbin", "gdrive"} {
		if pr, err := mgrs[0].Provider(name); err == nil {
			r.add("cloud.round_trips", float64(pr.RoundTrips))
		}
	}
}

// passOut is one finished pass as a pass process reports it to the
// run that started it.
type passOut struct {
	Traced     bool           `json:"traced"`
	SetupS     float64        `json:"setup_s"`
	MeasuredS  float64        `json:"measured_s"`
	Planned    int            `json:"planned"`
	OK         int            `json:"ok"`
	Codes      map[string]int `json:"codes,omitempty"`
	SaveMs     []float64      `json:"save_ms,omitempty"`
	RestoreMs  []float64      `json:"restore_ms,omitempty"`
	Digest     string         `json:"digest"`
	AllocMB    float64        `json:"alloc_mb"`
	PeakHeapMB float64        `json:"peak_heap_mb"`
	// Layer holds the pass's per-layer metrics, named as in layerDefs:
	// the sim-side counts always, span and runtime figures when traced.
	Layer map[string]float64 `json:"layer"`
}

// out seals the pass into its report. goroutinesLeft is how many more
// goroutines the process holds than before the pass.
func (r *passRec) out(peakHeap uint64, goroutinesLeft int) passOut {
	o := passOut{
		Traced:     r.tr != nil,
		SetupS:     r.setup.Seconds(),
		MeasuredS:  r.measured.Seconds(),
		Planned:    r.planned,
		OK:         r.ok,
		Codes:      r.codes,
		SaveMs:     r.saveMs,
		RestoreMs:  r.restoreMs,
		Digest:     r.finish(),
		AllocMB:    float64(r.alloc) / (1 << 20),
		PeakHeapMB: float64(peakHeap) / (1 << 20),
		Layer:      r.counts,
	}
	if r.tr == nil {
		return o
	}
	for _, k := range spanKinds {
		var t spanTotals
		if p := r.tr.totals[k]; p != nil {
			t = *p
		}
		o.Layer[k+".count"] = float64(t.count)
		o.Layer[k+".host_ms"] = ms(t.host)
		o.Layer[k+".self_ms"] = ms(t.self)
		o.Layer[k+".alloc_mb"] = float64(t.alloc) / (1 << 20)
		o.Layer[k+".gc_cpu_ms"] = t.gcCPU * 1e3
	}
	if busy := r.rt.totalCPU - r.rt.idleCPU; busy > 0 {
		o.Layer["runtime.gc_cpu_frac"] = r.rt.gcCPU / busy
	}
	o.Layer["runtime.mallocs"] = float64(r.rt.mallocs)
	o.Layer["runtime.gc_cycles"] = float64(r.rt.gcCycles)
	o.Layer["runtime.goroutines_left"] = float64(goroutinesLeft)
	if ev := r.counts["sim.events"]; ev > 0 {
		o.Layer["sim.host_us_per_event"] = float64((r.setup + r.measured).Microseconds()) / ev
	}
	return o
}

// finish seals the digest over the pass's counts and returns it.
func (r *passRec) finish() string {
	if r.counts["vault.chunks"] > 0 {
		r.counts["vault.dedup_frac"] = 1 - r.counts["vault.new_chunks"]/r.counts["vault.chunks"]
	}
	if r.eng != nil {
		r.counts["sim.events"] = float64(r.eng.Processed())
		r.counts["sim.sim_s"] = r.eng.Now().Seconds()
	}
	names := make([]string, 0, len(r.counts))
	for n := range r.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.feed(n, r.counts[n])
	}
	return hex.EncodeToString(r.digest.Sum(nil)[:16])
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
