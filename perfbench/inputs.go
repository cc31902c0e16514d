package main

// Seeded input generation. Every workload's input is a JSON document
// drawn from the --seed argument alone; the workloads parse it back and
// see nothing else, and the run saves it beside its output.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/campaign"
)

// defaultSeed is the seed the committed reference digests were taken
// with.
const defaultSeed = 1

// ftInput is the ft256-sharded input: one FT run compared at two shard
// counts.
type ftInput struct {
	Class    string `json:"class"`
	Procs    int    `json:"procs"`
	Iters    int    `json:"iters"`
	SettleS  int    `json:"settle_s"`
	BaseIdx  int    `json:"base_idx"`
	Shards   int    `json:"shards"`
	Jitter   int64  `json:"jitter_seed"`
	WarmupNP int    `json:"warmup_procs"`
}

// traceInput is the trace-long input: one cpuspeed EP run sampled
// every millisecond into three sinks.
type traceInput struct {
	Class          string `json:"class"`
	Procs          int    `json:"procs"`
	SettleS        int    `json:"settle_s"`
	IntervalUS     int    `json:"interval_us"`
	Jitter         int64  `json:"jitter_seed"`
	DownsampleNode int    `json:"downsample_node"`
	MaxPoints      int    `json:"max_points"`
	WarmupSettleS  int    `json:"warmup_settle_s"`
}

// jitterSeed draws a positive simulation jitter seed from the
// benchmark seed (campaign specs treat 0 as "use the default").
func jitterSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<31) + 1 }

// paperSpec is the paper's evaluation as one campaign: every figure's
// workload at -quick scale, under static, dynamic and cpuspeed control,
// three repetitions under the ACPI battery protocol.
func paperSpec(seed int64) campaign.Spec {
	rng := rand.New(rand.NewSource(seed))
	return campaign.Spec{
		Name:        "paper-matrix",
		Reps:        3,
		Settle:      "5m",
		Seed:        jitterSeed(rng),
		Parallelism: 2,
		Workloads: []campaign.WorkloadSpec{
			{Kind: "swim", Iters: 30},                    // Fig 1
			{Kind: "mgrid", Iters: 30},                   // Fig 1
			{Kind: "ft", Class: "B", Procs: 8, Iters: 2}, // Fig 3
			{Kind: "ft", Class: "C", Procs: 8, Iters: 1}, // Fig 4
			{Kind: "transpose", Iters: 1},                // Fig 5
			{Kind: "membench", Iters: 40},                // Fig 6
			{Kind: "cachebench", Iters: 100000},          // Fig 7
			{Kind: "regbench", Iters: 2000},              // Fig 7
			{Kind: "comm256k", Iters: 200},               // Fig 8
			{Kind: "comm4k", Iters: 2000},                // Fig 8
		},
		Strategies: []campaign.StrategySpec{
			{Kind: "static"},
			// FT's fft() and the transpose's steps 2-3 are the regions
			// the paper runs at minimum speed (Figs 4 and 5).
			{Kind: "dynamic", Regions: []string{"fft", "step2", "step3"}},
			{Kind: "cpuspeed"},
		},
	}
}

// generate returns the named workload's input document for seed.
func generate(workload string, seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	var v any
	switch workload {
	case "paper-matrix":
		s := paperSpec(seed)
		v = &s
	case "ft256-sharded":
		v = &ftInput{Class: "A", Procs: 256, Iters: 1, SettleS: 30, BaseIdx: 0, Shards: 2,
			Jitter: jitterSeed(rng), WarmupNP: 64}
	case "trace-long":
		v = &traceInput{Class: "A", Procs: 16, SettleS: 300, IntervalUS: 1000,
			Jitter: jitterSeed(rng), DownsampleNode: rng.Intn(16), MaxPoints: 512, WarmupSettleS: 30}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodeStrict parses a generated input, rejecting unknown fields.
func decodeStrict(in []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(in))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
