package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestDemoTranscripts runs every scripted demo at seed 1 with 8 nyms
// and compares its narration byte for byte with a recorded transcript.
// The simulation is deterministic, so any drift means a demo, or the
// world it runs on, changed behaviour. After an intended change,
// regenerate a transcript with, e.g.,
//
//	go run ./cmd/nymixctl -seed 1 -nyms 8 fleet > cmd/nymixctl/testdata/fleet.golden
func TestDemoTranscripts(t *testing.T) {
	const seed, nyms = 1, 8
	cases := []struct {
		golden string
		run    func(w io.Writer) error
	}{
		{"demo", func(w io.Writer) error { return demo(w, seed, "tor") }},
		{"demo_mixnet", func(w io.Writer) error { return demo(w, seed, "mixnet") }},
		{"fleet", func(w io.Writer) error { return fleetDemo(w, seed, nyms) }},
		{"cluster", func(w io.Writer) error { return clusterDemo(w, seed, nyms) }},
		{"elastic", func(w io.Writer) error { return elasticDemo(w, seed, nyms) }},
		{"sweeps", func(w io.Writer) error { return sweepsDemo(w, seed, nyms) }},
		{"status", func(w io.Writer) error { return statusDemo(w, seed, nyms) }},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := tc.run(&got); err != nil {
				t.Fatalf("%s: %v", tc.golden, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s transcript drifted:\n--- got\n%s--- want\n%s", tc.golden, got.Bytes(), want)
			}
		})
	}
}
