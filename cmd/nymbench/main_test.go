package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden replays every CI-sized experiment at seed 1, in parallel,
// and compares what nymbench would print (the rendered text) and the
// indented `result` of its -json record byte for byte with the
// recorded files in testdata/. One seed is one world, so any drift
// means a sim-time result changed; running the worlds side by side
// also shows that none leaks state into another.
//
// After an intended behaviour change, delete the stale files and run
// the test once to record them (that run fails so a missing golden
// never passes silently), then again to check them:
//
//	rm cmd/nymbench/testdata/fleet.*
//	go test ./cmd/nymbench -run 'TestGolden/fleet$'
func TestGolden(t *testing.T) {
	cases := []struct {
		name                string
		nyms, hosts, rounds int
	}{
		{name: "fig3"}, {name: "fig4"}, {name: "fig5"}, {name: "fig6"}, {name: "fig7"},
		{name: "table1"}, {name: "validation"}, {name: "ablations"}, {name: "vault"},
		{name: "fleet"}, {name: "sweeps"}, {name: "partition"}, {name: "censorship"},
		{name: "mixnet"}, {name: "summary"}, {name: "elastic"},
		{name: "shards", nyms: 64, hosts: 2},
		{name: "economy", nyms: 96, hosts: 2, rounds: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var run runner
			for _, e := range experimentsFor(tc.nyms, tc.hosts, tc.rounds) {
				if e.name == tc.name {
					run = e.run
				}
			}
			if run == nil {
				t.Fatalf("no experiment %q", tc.name)
			}
			out, result, err := run(1)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			js, err := json.MarshalIndent(result, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name+".txt", []byte(out+"\n"))
			checkGolden(t, tc.name+".json", append(js, '\n'))
		})
	}
}

// checkGolden compares got with testdata/name, recording it (and
// failing) when the file does not exist yet.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("recorded %s; check it in and rerun", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
