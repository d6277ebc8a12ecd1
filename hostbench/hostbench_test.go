package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"

	"nymix/internal/experiments"
)

const orderEnv = "HOSTBENCH_ORDER"

// TestDigestOrderHelper is not a test on its own: TestWorkloadOrder
// runs it in fresh processes, where it runs one untraced pass of each
// workload at seed 1 in the order the environment names and prints
// the digests.
func TestDigestOrderHelper(t *testing.T) {
	order := os.Getenv(orderEnv)
	if order == "" {
		t.Skip("runs only as a subprocess of TestWorkloadOrder")
	}
	digests := map[string]string{}
	for _, name := range strings.Split(order, ",") {
		w, ok := workloadNamed(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		r := newPassRec(false)
		if err := w.run(1, r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		digests[name] = r.finish()
	}
	out, _ := json.Marshal(digests)
	os.Stdout.WriteString("DIGESTS " + string(out) + "\n")
}

// TestWorkloadOrder runs the three workloads in two different orders,
// each in a fresh process, and requires equal sim digests. Process-
// global state that leaks into simulated results, such as gob type IDs
// assigned in first-use order, shows up here as a digest that depends
// on which workload ran first. The digests must also match the
// recorded golden for seed 1.
func TestWorkloadOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice at benchmark size")
	}
	run := func(order string) map[string]string {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDigestOrderHelper$", "-test.v")
		cmd.Env = append(os.Environ(), orderEnv+"="+order)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("order %s: %v\n%s", order, err, out)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "DIGESTS "); ok {
				var d map[string]string
				if err := json.Unmarshal([]byte(rest), &d); err != nil {
					t.Fatal(err)
				}
				return d
			}
		}
		t.Fatalf("order %s printed no digests:\n%s", order, out)
		return nil
	}
	fwd := run("boot,checkpoint,economy")
	rev := run("economy,checkpoint,boot")
	g, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if fwd[w.name] != rev[w.name] {
			t.Errorf("%s: digest %s when run first-to-last, %s last-to-first", w.name, fwd[w.name], rev[w.name])
		}
		if want := g[w.name]["1"]; fwd[w.name] != want {
			t.Errorf("%s: digest %s, golden for seed 1 is %q", w.name, fwd[w.name], want)
		}
	}
}

// tinyWorkloads are the benchmark's workloads at test size.
func tinyWorkloads() []workload {
	return []workload{
		{"boot", bootPass(2, 1)},
		{"checkpoint", checkpointPass(2, 2)},
		{"economy", economyPass(8, 2, 1, nil)},
	}
}

// TestTracingInert requires a traced pass to reproduce the untraced
// pass's sim digest, and to have recorded its workload's spans.
func TestTracingInert(t *testing.T) {
	spans := map[string][]string{
		"boot":       {"fleet.launch", "core.visit", "fleet.stop"},
		"checkpoint": {"core.start", "vdisk.write", "core.save", "core.terminate", "core.restore"},
		"economy":    {"cluster.launch", "fleet.save_sweep", "fleet.sweep_once", "cluster.round", "cluster.drain", "cluster.stop"},
	}
	for _, w := range tinyWorkloads() {
		plain, traced := newPassRec(false), newPassRec(true)
		if err := w.run(7, plain); err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		if err := w.run(7, traced); err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if a, b := plain.finish(), traced.finish(); a != b {
			t.Errorf("%s: untraced digest %s, traced %s", w.name, a, b)
		}
		for _, k := range spans[w.name] {
			tot := traced.tr.totals[k]
			if tot == nil || tot.count == 0 {
				t.Errorf("%s: no %s spans", w.name, k)
				continue
			}
			if tot.self < 0 || tot.self > tot.host {
				t.Errorf("%s: %s self time %v outside [0, %v]", w.name, k, tot.self, tot.host)
			}
		}
	}
}

// TestEconomyMatchesExperiment holds the benchmark's economy workload to
// the adaptive mode of experiments.Economy at a tiny pool: identical
// sweep counts, wire bytes and staleness percentiles.
func TestEconomyMatchesExperiment(t *testing.T) {
	const seed, nyms, hosts, rounds = 3, 8, 2, 2
	want, err := experiments.Economy(seed, nyms, hosts, rounds)
	if err != nil {
		t.Fatal(err)
	}
	var got experiments.EconomyMode
	if err := economyPass(nyms, hosts, rounds, &got)(seed, newPassRec(false)); err != nil {
		t.Fatal(err)
	}
	if got != want.Adaptive {
		t.Errorf("economy workload diverged from experiments.Economy adaptive mode:\n got  %+v\n want %+v", got, want.Adaptive)
	}
	if got.Saves == 0 || got.Deferred == 0 {
		t.Errorf("tiny pool exercised nothing: %+v", got)
	}
}
