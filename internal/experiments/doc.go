// Package experiments regenerates every table and figure in the
// paper's evaluation (section 5), plus the validation of section 5.1
// and ablations for the design choices discussed in sections 3.5 and
// 7. Beyond the paper it measures the scale-out subsystems the
// ROADMAP grew: NymVault incremental checkpoints (VaultIncremental),
// single-host fleet ramps (FleetRampUp), multi-host sharding with
// live migration (FleetShards), and elastic autoscaling with
// priority-class admission (Elastic). Each generator builds a fresh
// deterministic world from a seed and returns typed rows; Render*
// helpers print them in the paper's layout. Every world comes from
// NewRig, NewFleetRig or NewClusterRig and every script runs through
// RunProc, the same harness the cmd/nymixctl demos use. cmd/nymbench
// is the CLI front end and bench_test.go wraps each generator in a
// testing.B benchmark.
package experiments
