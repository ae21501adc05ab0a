package sim

import (
	"reflect"
	"testing"

	"edgeauction/internal/demand"
	"edgeauction/internal/workload"
)

// gateReport builds a minimal one-service round report for the demand
// gate tests.
func gateReport(util float64, queue int) *RoundReport {
	return &RoundReport{
		Round: 3,
		Indicators: map[int]demand.Indicators{
			1: {Round: 3, ExecutionRate: util, Allocated: 20, MaxAllocated: 25,
				ReceivedResponses: 10, ServedResponses: 8, NeededRate: 5, AchievedRate: 4},
		},
		QueueLengths:  map[int]int{1: queue},
		Allocated:     map[int]float64{1: 20},
		SLAViolations: map[int]int{},
		MeanWaiting:   map[int]float64{1: 2},
	}
}

// TestBridgeNeedyQueueGate checks BridgeConfig.NeedyQueue: below the
// threshold a backlogged-but-underutilized service stays off the demand
// side; at the threshold it enters; and the default (zero) keeps the
// legacy any-backlog behavior.
func TestBridgeNeedyQueueGate(t *testing.T) {
	s, err := New(Config{Services: 2, Rounds: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gated, err := NewBridge(s, BridgeConfig{Seed: 1, NeedyQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ar := gated.Convert(gateReport(0.3, 1)); len(ar.NeedyIDs) != 0 {
		t.Fatalf("queue 1 under NeedyQueue 2: needy %v, want none", ar.NeedyIDs)
	}
	if ar := gated.Convert(gateReport(0.3, 2)); len(ar.NeedyIDs) != 1 {
		t.Fatalf("queue 2 under NeedyQueue 2: needy %v, want the service", ar.NeedyIDs)
	}
	// High utilization is needy regardless of the queue gate.
	if ar := gated.Convert(gateReport(0.8, 0)); len(ar.NeedyIDs) != 1 {
		t.Fatalf("utilization 0.8 under NeedyQueue 2: needy %v, want the service", ar.NeedyIDs)
	}
	legacy, err := NewBridge(s, BridgeConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ar := legacy.Convert(gateReport(0.3, 1)); len(ar.NeedyIDs) != 1 {
		t.Fatalf("queue 1 under default gate: needy %v, want the service (legacy behavior)", ar.NeedyIDs)
	}
}

// TestBridgeMaxUnitsCap checks BridgeConfig.MaxUnits bounds the per-needy
// coverage demand. A saturated service's AHP estimate blows up through
// the 1/(1-utilization) pole; the cap keeps it at market scale while the
// default stays uncapped.
func TestBridgeMaxUnitsCap(t *testing.T) {
	s, err := New(Config{Services: 2, Rounds: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	saturated := gateReport(1.0, 50)
	legacy, err := NewBridge(s, BridgeConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw := legacy.Convert(saturated).Round.Instance.Demand[0]
	if raw <= 10 {
		t.Fatalf("saturated demand = %d, expected the utilization pole to exceed the cap", raw)
	}
	capped, err := NewBridge(s, BridgeConfig{Seed: 1, MaxUnits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := capped.Convert(saturated).Round.Instance.Demand[0]; got != 10 {
		t.Fatalf("capped demand = %d, want 10", got)
	}
	// Demand below the cap is untouched.
	mild := gateReport(0.75, 2)
	want := legacy.Convert(mild).Round.Instance.Demand[0]
	if want > 10 {
		t.Skipf("mild demand %d above cap; indicator scale changed", want)
	}
	if got := capped.Convert(mild).Round.Instance.Demand[0]; got != want {
		t.Fatalf("sub-cap demand = %d, want %d (unchanged)", got, want)
	}
}

// TestDemandSchedule pins the shared workload demand schedule: it is a
// pure function of its inputs, an idle graph's empty rounds become [1],
// and a negative work scale is refused.
func TestDemandSchedule(t *testing.T) {
	schedule := func(topology string, scale float64) ([][]int, error) {
		g, err := workload.BuiltinGraph(topology)
		if err != nil {
			t.Fatal(err)
		}
		return DemandSchedule(g, scale, 4, 30, 23)
	}
	hot, err := schedule("overload", 3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := schedule("overload", 3)
	if err != nil || !reflect.DeepEqual(hot, again) {
		t.Fatalf("same inputs gave %v, then %v (err %v)", hot, again, err)
	}
	idle, err := schedule("three-tier", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) != 30 || reflect.DeepEqual(hot, idle) {
		t.Fatalf("overloaded graph schedule %v: want 30 rounds, not all idle", hot)
	}
	for r, d := range idle {
		if !reflect.DeepEqual(d, []int{1}) {
			t.Fatalf("idle graph round %d demand %v, want [1]", r+1, d)
		}
	}
	if _, err := schedule("overload", -1); err == nil {
		t.Fatal("negative work scale accepted")
	}
}
