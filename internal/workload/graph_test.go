package workload

import (
	"errors"
	"math"
	"strings"
	"testing"
)

const sampleTopologyYAML = `
# A three-service chain with one flow.
name: sample
services:
  - name: frontend
    class: sensitive
    cloud: 1
    work: 20
    calls:
      - to: logic
        prob: 0.9
  - name: logic
    class: tolerant
    work: 30
    error_rate: 0.1
    calls: [storage]          # bare string = prob 1
  - name: storage
    class: tolerant
    cloud: 2
    work: 40
entries:
  - service: frontend
    arrivals: {process: onoff, rate: 6, period: 4, duty: 0.5}
flows:
  - name: browse
    steps: [frontend, storage]
    arrivals:
      process: poisson
      rate: 2
`

func TestParseServiceGraph(t *testing.T) {
	g, err := ParseServiceGraph([]byte(sampleTopologyYAML))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "sample" || len(g.Services) != 3 {
		t.Fatalf("got name %q, %d services", g.Name, len(g.Services))
	}
	fe := g.Services[0]
	if fe.Name != "frontend" || fe.Class != DelaySensitive || fe.Cloud != 1 || fe.Work != 20 {
		t.Errorf("frontend parsed wrong: %+v", fe)
	}
	if len(fe.Calls) != 1 || fe.Calls[0].To != "logic" || fe.Calls[0].Prob != 0.9 {
		t.Errorf("frontend calls parsed wrong: %+v", fe.Calls)
	}
	lg := g.Services[1]
	if lg.Class != DelayTolerant || lg.ErrorRate != 0.1 {
		t.Errorf("logic parsed wrong: %+v", lg)
	}
	if len(lg.Calls) != 1 || lg.Calls[0].To != "storage" || lg.Calls[0].Prob != 1 {
		t.Errorf("bare-string call shorthand parsed wrong: %+v", lg.Calls)
	}
	if len(g.Entries) != 1 || g.Entries[0].Arrivals.Process != ArrivalOnOff || g.Entries[0].Arrivals.Rate != 6 {
		t.Errorf("entries parsed wrong: %+v", g.Entries)
	}
	if len(g.Flows) != 1 || g.Flows[0].Name != "browse" || len(g.Flows[0].Steps) != 2 {
		t.Errorf("flows parsed wrong: %+v", g.Flows)
	}
}

func TestParseServiceGraphErrors(t *testing.T) {
	cases := []struct {
		name string
		yaml string
		want string
	}{
		{"tabs", "name: x\n\tservices:", "tabs"},
		{"unknown field", "bogus: 1\nname: x", "unknown top-level field"},
		{"unknown service field", "services:\n  - name: a\n    wat: 1\nentries:\n  - service: a\n    arrivals: {rate: 1}", "unknown service field"},
		{"dangling call", "services:\n  - name: a\n    calls: [b]\nentries:\n  - service: a\n    arrivals: {rate: 1}", "unknown service"},
		{"cycle", "services:\n  - name: a\n    calls: [b]\n  - name: b\n    calls: [a]\nentries:\n  - service: a\n    arrivals: {rate: 1}", "cycle"},
		{"no load", "services:\n  - name: a", "nothing generates load"},
		{"bad rate", "services:\n  - name: a\nentries:\n  - service: a\n    arrivals: {rate: 0}", "rate must be positive"},
		{"bad process", "services:\n  - name: a\nentries:\n  - service: a\n    arrivals: {process: weibull, rate: 1}", "unknown arrival process"},
		{"bad prob", "services:\n  - name: a\n    calls:\n      - to: b\n        prob: 1.5\n  - name: b\nentries:\n  - service: a\n    arrivals: {rate: 1}", "prob must be in"},
		{"duplicate service", "services:\n  - name: a\n  - name: a\nentries:\n  - service: a\n    arrivals: {rate: 1}", "duplicate service"},
		{"bad error rate", "services:\n  - name: a\n    error_rate: 1.0\nentries:\n  - service: a\n    arrivals: {rate: 1}", "error_rate"},
		{"dangling flow step", "services:\n  - name: a\nflows:\n  - name: f\n    steps: [a, z]\n    arrivals: {rate: 1}", "unknown step"},
		{"dangling entry", "services:\n  - name: a\nentries:\n  - service: z\n    arrivals: {rate: 1}", "unknown service"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseServiceGraph([]byte(tc.yaml))
			if err == nil {
				t.Fatalf("expected an error containing %q, got nil", tc.want)
			}
			if !errors.Is(err, ErrBadTopology) {
				t.Errorf("error does not wrap ErrBadTopology: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestBuiltinGraphsValid(t *testing.T) {
	names := BuiltinGraphNames()
	if len(names) == 0 {
		t.Fatal("no builtin graphs")
	}
	for _, name := range names {
		g, err := BuiltinGraph(name)
		if err != nil {
			t.Fatalf("BuiltinGraph(%q): %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
		// Builders must hand out fresh copies.
		g.Services[0].Work = -999
		g2, _ := BuiltinGraph(name)
		if g2.Services[0].Work == -999 {
			t.Errorf("builtin %q shares state across BuiltinGraph calls", name)
		}
	}
	if _, err := BuiltinGraph("no-such-graph"); !errors.Is(err, ErrBadTopology) {
		t.Errorf("unknown builtin: got %v, want ErrBadTopology", err)
	}
}

func TestResolveGraph(t *testing.T) {
	if g, err := ResolveGraph("", ""); g != nil || err != nil {
		t.Fatalf("neither set: got %v, %v; want nil, nil", g, err)
	}
	if g, err := ResolveGraph("overload", ""); err != nil || g.Name != "overload" {
		t.Fatalf("builtin: got %v, %v", g, err)
	}
	if _, err := ResolveGraph("", "no-such-file.yaml"); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("file: got %v, want ErrBadTopology", err)
	}
	if _, err := ResolveGraph("overload", "t.yaml"); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("both set: got %v, want mutually-exclusive error", err)
	}
}

func TestServiceGraphClone(t *testing.T) {
	g, err := BuiltinGraph("overload")
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	c.Services[0].Work *= 10
	c.Services[0].Calls[0].Prob = 0.123
	c.Entries[0].Arrivals.Rate = 99
	if g.Services[0].Work == c.Services[0].Work ||
		g.Services[0].Calls[0].Prob == 0.123 ||
		g.Entries[0].Arrivals.Rate == 99 {
		t.Error("Clone shares state with the original")
	}
}

func TestVisitRatesPropagation(t *testing.T) {
	g, err := ParseServiceGraph([]byte(sampleTopologyYAML))
	if err != nil {
		t.Fatal(err)
	}
	rates := g.VisitRates(1000)
	// frontend: entry (onoff mean = 6 exactly over whole periods; 1000 is
	// a multiple of period 4) + flow step 2 = 8.
	// logic: frontend · 0.9 = 7.2.
	// storage: logic · (1−0.1) · 1 + flow step 2 = 6.48 + 2 = 8.48.
	want := []float64{8, 7.2, 8.48}
	for i, w := range want {
		if math.Abs(rates[i]-w) > 1e-9 {
			t.Errorf("VisitRates[%d] (%s) = %v, want %v", i, g.Services[i].Name, rates[i], w)
		}
	}
}

// TestArrivalEmpiricalRate is the satellite property test: for each
// arrival process, the empirical mean of Poisson(Intensity(t)) draws
// over many rounds must match the analytic nominal within tolerance.
func TestArrivalEmpiricalRate(t *testing.T) {
	const rounds = 20000
	specs := []struct {
		name string
		spec ArrivalSpec
	}{
		{"poisson", ArrivalSpec{Process: ArrivalPoisson, Rate: 5}},
		{"onoff", ArrivalSpec{Process: ArrivalOnOff, Rate: 5, Period: 8, Duty: 0.25}},
		{"onoff-default", ArrivalSpec{Process: ArrivalOnOff, Rate: 3}},
		{"diurnal", ArrivalSpec{Process: ArrivalDiurnal, Rate: 5, Period: 24, Amplitude: 0.8}},
		{"flash", ArrivalSpec{Process: ArrivalFlash, Rate: 4, At: 100, Width: 10, Height: 6}},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			nominal := tc.spec.MeanIntensity(rounds)
			if nominal <= 0 {
				t.Fatalf("nominal mean %v", nominal)
			}
			rng := NewDerived(42, "arrival-prop", 0, 0)
			total := 0
			for r := 0; r < rounds; r++ {
				total += rng.Poisson(tc.spec.Intensity(r))
			}
			empirical := float64(total) / rounds
			// ±4σ of the mean of `rounds` Poisson draws, plus slack for
			// the normal-approximation tail at high intensity.
			tol := 4*math.Sqrt(nominal/rounds) + 0.02*nominal
			if math.Abs(empirical-nominal) > tol {
				t.Errorf("empirical rate %v vs nominal %v (tol %v)", empirical, nominal, tol)
			}
		})
	}
}

// TestOnOffMeanPreserving checks the on/off process concentrates, not
// inflates, the load: the exact mean over whole periods equals Rate.
func TestOnOffMeanPreserving(t *testing.T) {
	for _, duty := range []float64{0.1, 0.25, 0.5, 0.75, 1} {
		spec := ArrivalSpec{Process: ArrivalOnOff, Rate: 7, Period: 12, Duty: duty}
		if m := spec.MeanIntensity(12 * 50); math.Abs(m-7) > 1e-9 {
			t.Errorf("duty %v: mean %v, want exactly 7", duty, m)
		}
	}
}

// TestArrivalIntensityPure pins the determinism contract: Intensity is
// a pure function, identical across calls and call orders.
func TestArrivalIntensityPure(t *testing.T) {
	spec := ArrivalSpec{Process: ArrivalOnOff, Rate: 5, Period: 7, Duty: 0.4, Phase: 3}
	forward := make([]float64, 100)
	for tr := 0; tr < 100; tr++ {
		forward[tr] = spec.Intensity(tr)
	}
	for tr := 99; tr >= 0; tr-- {
		if got := spec.Intensity(tr); got != forward[tr] {
			t.Fatalf("Intensity(%d) changed between calls: %v vs %v", tr, got, forward[tr])
		}
	}
	// Negative phases must not index a negative period slot.
	neg := ArrivalSpec{Process: ArrivalOnOff, Rate: 5, Period: 7, Phase: -30}
	for tr := 0; tr < 20; tr++ {
		if v := neg.Intensity(tr); v < 0 {
			t.Fatalf("negative intensity %v at t=%d", v, tr)
		}
	}
}

func TestFlashIntensityShape(t *testing.T) {
	spec := ArrivalSpec{Process: ArrivalFlash, Rate: 2, At: 10, Width: 2, Height: 3}
	for tr := 0; tr < 20; tr++ {
		want := 2.0
		if tr >= 8 && tr <= 12 {
			want = 8
		}
		if got := spec.Intensity(tr); got != want {
			t.Errorf("flash Intensity(%d) = %v, want %v", tr, got, want)
		}
	}
}
