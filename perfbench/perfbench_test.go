package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/dvs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var workloadNames = []string{"paper-matrix", "ft256-sharded", "trace-long"}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7)
		c, _ := generate(name, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same input", name)
		}
		w, _ := newWorkload(name)
		switch w.(type) {
		case *paperMatrix:
			if _, err := campaign.Parse(bytes.NewReader(a)); err != nil {
				t.Errorf("%s: generated spec does not parse: %v", name, err)
			}
		case *ft256:
			var in ftInput
			if err := decodeStrict(a, &in); err != nil {
				t.Error(err)
			}
		case *traceLong:
			var in traceInput
			if err := decodeStrict(a, &in); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := generate("nope", 1); err == nil {
		t.Error("unknown workload generated an input")
	}
}

// smallRun is one short traced cluster run with every decorator
// available: FT class A on 8 ranks under dynamic control of fft().
func smallRun(t *testing.T, ut *unitTrace) string {
	t.Helper()
	var archive bytes.Buffer
	var st *trace.Stats
	cfg := cluster.DefaultConfig()
	cfg.Settle = sim.Second
	cfg.TraceInterval = 10 * sim.Millisecond
	cfg.TraceSinks = func(cluster.RunInfo) []trace.Sink {
		st = trace.NewStats()
		sinks := []trace.Sink{st, trace.NewWriter(&archive), trace.NewDownsampler(3, 64)}
		if ut != nil {
			for i, name := range []string{"stats", "writer", "downsampler"} {
				sinks[i] = ut.sink(name, sinks[i])
			}
		}
		return sinks
	}
	if ut != nil {
		cfg.Fabric = fabricFactory(cfg.Net, func() *unitTrace { return ut })
	}
	r, err := cluster.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ft := workloads.NewFT('A', 8)
	ft.IterOverride = 1
	strat := dvs.NewDynamic(workloads.RegionFFT)
	var res *cluster.Result
	if ut == nil {
		res, err = r.RunOnce(ft, strat, 1, 42)
	} else {
		res, err = ut.runOnce(0, r, ft, strat, 1, 42)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res); err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	if err := d.result(res); err != nil {
		t.Fatal(err)
	}
	s, err := statsText(st)
	if err != nil {
		t.Fatal(err)
	}
	d.h.Write([]byte(s))
	d.h.Write(archive.Bytes())
	return d.sum()
}

func TestDecoratorsLeaveResultsByteIdentical(t *testing.T) {
	plain := smallRun(t, nil)
	ut := newUnitTrace(newTracer(), 0)
	if got := smallRun(t, ut); got != plain {
		t.Fatalf("probed run digest %.12s, plain %.12s", got, plain)
	}
	// The probes must have seen the layers they wrap.
	if len(ut.fabrics) != 1 || ut.fabrics[0].sends == 0 || ut.fabrics[0].accepts != ut.fabrics[0].sends {
		t.Errorf("fabric probe saw %+v", ut.fabrics)
	}
	for _, name := range []string{"stats", "writer", "downsampler"} {
		if s := ut.sinks[name]; s == nil || s.ticks == 0 || s.samples != 8*s.ticks {
			t.Errorf("sink probe %s saw %+v", name, s)
		}
	}
	if len(ut.runs) != 1 || ut.runs[0].regionCalls == 0 || ut.runs[0].build <= 0 || ut.runs[0].collect <= 0 {
		t.Errorf("run probe saw %+v", ut.runs)
	}
}

func TestPaperRedriveMatchesCampaignRun(t *testing.T) {
	spec := `{"name": "small", "reps": 3, "settle": "30s", "parallelism": 2,
	  "workloads": [{"kind": "ft", "class": "A", "procs": 4, "iters": 1}, {"kind": "comm4k", "iters": 200}],
	  "strategies": [{"kind": "static"}, {"kind": "dynamic", "regions": ["fft"]}, {"kind": "cpuspeed"}]}`
	p := &paperMatrix{}
	if _, err := p.setup([]byte(spec)); err != nil {
		t.Fatal(err)
	}
	rows, err := campaign.Run(p.spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ut := newUnitTrace(newTracer(), 0)
	redriven, err := p.redrive(ut)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rows)
	b, _ := json.Marshal(redriven)
	if !bytes.Equal(a, b) {
		t.Fatalf("re-drive differs from campaign.Run:\n%s\n%s", a, b)
	}
	if err := p.check(redriven); err != nil {
		t.Fatal(err)
	}
	if want := len(p.cells) * 3; len(ut.runs) != want {
		t.Errorf("re-drive probed %d RunOnce calls, want %d", len(ut.runs), want)
	}
	if !(ut.execBusy > 0 && ut.execBusy <= 1) {
		t.Errorf("exec busy fraction %v", ut.execBusy)
	}
}

func TestCheckResultFlagsBrokenEnergySum(t *testing.T) {
	r, err := cluster.NewRunner(cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunOnce(workloads.NewSwim(2), dvs.Static{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res); err != nil {
		t.Fatalf("healthy result flagged: %v", err)
	}
	res.Nodes[0].Component[power.Components()[0]] += 0.5
	if err := checkResult(res); err == nil {
		t.Fatal("a node whose components do not sum to its total passed")
	}
}

func TestStatsTextSeesEveryValue(t *testing.T) {
	mk := func(w power.Watts) string {
		st := trace.NewStats()
		if err := st.Begin(trace.Meta{Version: trace.FormatVersion, Interval: sim.Second, NodeIDs: []int{0}, Components: power.NumComponents}); err != nil {
			t.Fatal(err)
		}
		if err := st.Tick(0, []trace.Sample{{Total: w}}); err != nil {
			t.Fatal(err)
		}
		s, err := statsText(st)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if mk(10) == mk(10+1e-12) {
		t.Fatal("stats differing in the last digits rendered the same")
	}
	if err := sameDigest("x", "a", "b"); !errors.Is(err, errMismatch) {
		t.Fatalf("sameDigest: %v", err)
	}
}

// runJSON runs the benchmark and decodes its last output line.
func runJSON(t *testing.T, o options) report {
	t.Helper()
	o.out = t.TempDir()
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunFlagsWrongReferenceDigest(t *testing.T) {
	rep := runJSON(t, options{workload: "trace-long", seed: defaultSeed, seconds: 1,
		refs: map[string]string{"trace-long": "not-the-digest"}})
	if rep.Correct || rep.Attempted == 0 || rep.Failed != rep.Attempted {
		t.Fatalf("a wrong reference digest gave %+v", rep)
	}
}

func TestRunReportsBenchmarkMetrics(t *testing.T) {
	bm := readBenchmarkJSON(t)
	for _, traced := range []bool{false, true} {
		rep := runJSON(t, options{workload: "trace-long", seed: 5, seconds: 1, traced: traced})
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2*minUnits*b2i(traced) {
			t.Fatalf("trace=%v: %+v", traced, rep)
		}
		want := bm.EndToEnd
		if traced {
			want = bm.PerLayer
		}
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			got, ok := rep.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s: got %+v, want unit %s", traced, m.Name, got, m.Unit)
			}
			if !traced && !(got.Value > 0) {
				t.Errorf("end-to-end metric %s is %v", m.Name, got.Value)
			}
		}
		if len(rep.Metrics) != len(names) {
			var have []string
			for k := range rep.Metrics {
				have = append(have, k)
			}
			sort.Strings(have)
			t.Errorf("trace=%v: reported %v, BENCHMARK.json names %v", traced, have, names)
		}
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	return bm
}
