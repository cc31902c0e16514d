package main

// Output checks: digests of everything a unit produces, invariants that
// hold for any seed, and the accuracy of the paper-matrix headline
// ratios against the paper.

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/power"
	"repro/internal/trace"
)

//go:embed reference.json
var referenceJSON []byte

// references maps each workload to its digest at defaultSeed.
func references() (map[string]string, error) {
	ref := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// digest accumulates a SHA-256 over a unit's outputs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *digest) json(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	d.h.Write(b)
	return nil
}

// result folds every field of a cluster.Result: per-node energies,
// state times and component energies, profiles, events, and the trace
// statistics.
func (d *digest) result(r *cluster.Result) error {
	c := *r
	c.Trace = nil // no exported state; folded through its accessors below
	if err := d.json(c); err != nil {
		return err
	}
	if r.Trace != nil {
		s, err := statsText(r.Trace)
		if err != nil {
			return err
		}
		d.h.Write([]byte(s))
	}
	return nil
}

// statsText renders trace statistics exactly (shortest round-trip
// floats), so two Stats compare equal only if every value is equal.
func statsText(st *trace.Stats) (string, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "ticks=%d\n", st.Ticks())
	for _, id := range st.Nodes() {
		mean, err := st.MeanPower(id)
		if err != nil {
			return "", err
		}
		peak, err := st.PeakPower(id)
		if err != nil {
			return "", err
		}
		e, err := st.Energy(id)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%d %s %s %s\n", id, exact(float64(mean)), exact(float64(peak)), exact(float64(e)))
	}
	return b.String(), nil
}

func exact(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// checkResult verifies the invariants of one run that hold for any
// seed: finite positive delay and energy, and per-node component
// energies summing to the node total.
func checkResult(r *cluster.Result) error {
	if r.Delay <= 0 || !(r.EnergyTrue > 0) || math.IsInf(float64(r.EnergyTrue), 0) {
		return fmt.Errorf("%s/%s@%s: delay %v energy %v", r.Workload, r.Strategy, r.Label, r.Delay, r.EnergyTrue)
	}
	var total power.Joules
	for i, n := range r.Nodes {
		var sum power.Joules
		for _, c := range power.Components() {
			sum += n.Component[c]
		}
		if math.Abs(float64(sum-n.Energy)) > 1e-9*math.Max(1, math.Abs(float64(n.Energy))) {
			return fmt.Errorf("%s/%s@%s node %d: components sum to %v J, node total %v J",
				r.Workload, r.Strategy, r.Label, i, sum, n.Energy)
		}
		total += n.Energy
	}
	if math.Abs(float64(total-r.EnergyTrue)) > 1e-9*float64(r.EnergyTrue) {
		return fmt.Errorf("%s/%s@%s: node energies sum to %v J, total %v J", r.Workload, r.Strategy, r.Label, total, r.EnergyTrue)
	}
	return nil
}

// paperValue is one normalized headline ratio the paper reports,
// relative to the same workload's static 1.4 GHz point. The values are
// the "paper" column of EXPERIMENTS.md.
type paperValue struct {
	workload, strategy, point string
	energy                    bool // E/E0 when true, D/D0 otherwise
	value                     float64
}

var paperValues = []paperValue{
	// Figure 3: FT class B on 8 nodes.
	{"ft.B", "static", "600MHz", true, 0.655},
	{"ft.B", "static", "600MHz", false, 1.068},
	{"ft.B", "cpuspeed", "auto", true, 0.966},
	{"ft.B", "cpuspeed", "auto", false, 0.988},
	// Figure 4: FT class C on 8 processors.
	{"ft.C", "static", "800MHz", true, 1 - 0.286},
	{"ft.C", "static", "800MHz", false, 1.042},
	{"ft.C", "static", "600MHz", true, 1 - 0.337},
	{"ft.C", "static", "600MHz", false, 1.099},
	{"ft.C", "dynamic", "1.4GHz", true, 1 - 0.326},
	{"ft.C", "dynamic", "1.4GHz", false, 1.078},
	{"ft.C", "dynamic", "1.0GHz", true, 1 - 0.346},
	{"ft.C", "dynamic", "1.0GHz", false, 1.087},
	{"ft.C", "cpuspeed", "auto", true, 1 - 0.124},
	{"ft.C", "cpuspeed", "auto", false, 1.039},
	// Figure 5: 12K x 12K transpose on 15 processors.
	{"transpose", "static", "800MHz", true, 1 - 0.162},
	{"transpose", "static", "800MHz", false, 1.0078},
	{"transpose", "static", "600MHz", true, 1 - 0.197},
	{"transpose", "static", "600MHz", false, 1.024},
	// Figures 6-8: microbenchmarks.
	{"membench", "static", "600MHz", true, 0.593},
	{"membench", "static", "600MHz", false, 1.054},
	{"cachebench", "static", "800MHz", true, 0.90},
	{"cachebench", "static", "600MHz", false, 2.34},
	{"regbench", "static", "600MHz", false, 2.45},
	{"commbench-262144B", "static", "600MHz", true, 0.699},
	{"commbench-262144B", "static", "600MHz", false, 1.06},
	{"commbench-4096B", "static", "600MHz", true, 0.64},
	{"commbench-4096B", "static", "600MHz", false, 1.04},
}

// paperErrPct is the mean absolute relative error, in percent, of the
// measured headline ratios against paperValues.
func paperErrPct(rows []campaign.Result) (float64, error) {
	byKey := map[string]campaign.Result{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Strategy+"/"+r.Point] = r
	}
	var sum float64
	for _, pv := range paperValues {
		base, ok := byKey[pv.workload+"/static/1.4GHz"]
		r, ok2 := byKey[pv.workload+"/"+pv.strategy+"/"+pv.point]
		if !ok || !ok2 {
			return 0, fmt.Errorf("paper value %s/%s@%s: no such campaign row", pv.workload, pv.strategy, pv.point)
		}
		got := r.DelayS / base.DelayS
		if pv.energy {
			got = r.EnergyJ / base.EnergyJ
		}
		sum += math.Abs(got-pv.value) / pv.value
	}
	return 100 * sum / float64(len(paperValues)), nil
}

// errMismatch reports two digests of what must be the same output.
var errMismatch = errors.New("digest mismatch")

func sameDigest(what, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: %w: %.12s != %.12s", what, errMismatch, got, want)
	}
	return nil
}
