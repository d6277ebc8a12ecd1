package main

// Host-cost tracing. Spans sit only around the benchmark's own calls
// into the layers' public APIs (core, fleet, cluster, vdisk); nothing
// inside the program is instrumented. A nil *tracer is the untraced
// mode: span runs the call and records nothing.

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// spanKinds lists every span kind the workloads record, in report
// order. Kinds a workload never calls read zero on it.
var spanKinds = []string{
	// boot
	"fleet.launch", "core.visit", "fleet.stop",
	// checkpoint
	"core.start", "vdisk.write", "core.save", "core.terminate", "core.restore",
	// economy
	"cluster.launch", "fleet.save_sweep", "fleet.sweep_once", "cluster.round", "cluster.drain", "cluster.stop",
}

// spanTotals accumulates one kind's spans over a pass.
type spanTotals struct {
	count int
	host  time.Duration
	self  time.Duration
	alloc uint64  // bytes allocated inside the spans
	gcCPU float64 // GC CPU seconds accrued inside the spans
}

// openSpan is a span whose call has not returned yet.
type openSpan struct {
	kind  string
	start time.Duration // process CPU time
	child time.Duration // host time covered by direct children
	alloc uint64
	gcCPU float64
}

// tracer records spans of one pass. The workload's calls run in one
// simulated process, and the simulator runs one process at a time, so
// spans nest strictly and a stack gives each span its parent.
type tracer struct {
	stack  []openSpan
	totals map[string]*spanTotals
	rt     []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		totals: make(map[string]*spanTotals),
		rt: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
		},
	}
}

// span times fn as one span of the given kind. A nil tracer just calls
// fn, so the untraced path adds a nil check and nothing else.
func (t *tracer) span(kind string, fn func() error) error {
	if t == nil {
		return fn()
	}
	metrics.Read(t.rt)
	t.stack = append(t.stack, openSpan{
		kind:  kind,
		start: cpuTime(),
		alloc: t.rt[0].Value.Uint64(),
		gcCPU: t.rt[1].Value.Float64(),
	})
	err := fn()
	end := cpuTime()
	metrics.Read(t.rt)
	s := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - s.start
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += dur
	}
	tot := t.totals[kind]
	if tot == nil {
		tot = &spanTotals{}
		t.totals[kind] = tot
	}
	tot.count++
	tot.host += dur
	tot.self += dur - s.child
	tot.alloc += t.rt[0].Value.Uint64() - s.alloc
	tot.gcCPU += t.rt[1].Value.Float64() - s.gcCPU
	return err
}

// cpuTime returns the process's user plus system CPU time. Host time
// is measured on this clock rather than the wall clock: on a shared
// machine it leaves out the time other tenants held the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters are the process-wide runtime/metrics counters a
// traced pass differences.
type runtimeCounters struct {
	gcCPU, totalCPU, idleCPU      float64
	mallocs, gcCycles, allocBytes uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		idleCPU:    s[2].Value.Float64(),
		mallocs:    s[3].Value.Uint64(),
		gcCycles:   s[4].Value.Uint64(),
		allocBytes: s[5].Value.Uint64(),
	}
}
