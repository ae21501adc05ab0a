package loadgen

import (
	"context"
	"testing"
	"time"

	"edgeauction/internal/platform"
)

func startServer(t *testing.T, cfg platform.ServerConfig) *platform.Server {
	t.Helper()
	if cfg.BidDeadline == 0 {
		cfg.BidDeadline = 2 * time.Second
	}
	srv, err := platform.NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFleetMultiplexedRegistration: a 30-agent fleet at 8 agents/conn
// registers all 30 agents over ceil(30/8)=4 sockets, every agent bids
// every round, and all bids land in the cleared instance.
func TestFleetMultiplexedRegistration(t *testing.T) {
	srv := startServer(t, platform.ServerConfig{})
	fleet, err := Dial(srv.Addr(), Config{Agents: 30, AgentsPerConn: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fleet.Close() }()

	if got := fleet.Sessions(); got != 4 {
		t.Fatalf("sessions = %d, want 4", got)
	}
	waitFor(t, "registration", func() bool { return srv.AgentCount() == 30 })

	const rounds = 3
	for i := 0; i < rounds; i++ {
		out, err := srv.RunRound([]int{2, 1}, nil)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if out.Bids != 30 {
			t.Fatalf("round %d gathered %d bids, want 30", i, out.Bids)
		}
		if len(out.Awards) == 0 {
			t.Fatalf("round %d produced no awards", i)
		}
	}
	// A session counts its batch after the write returns, which can be
	// after the server has gathered it and closed the round.
	waitFor(t, "bid accounting", func() bool { return fleet.BidsSent() == 30*rounds })
	waitFor(t, "award delivery", func() bool { return fleet.Awards() > 0 })
	if fleet.Errs() != 0 {
		t.Fatalf("fleet saw %d session errors", fleet.Errs())
	}
}

// TestFleetDrivesPipelinedRounds: the same fleet drives RunPipelined
// end to end — overlapped rounds all clear with full participation.
func TestFleetDrivesPipelinedRounds(t *testing.T) {
	srv := startServer(t, platform.ServerConfig{})
	fleet, err := Dial(srv.Addr(), Config{Agents: 24, AgentsPerConn: 6, ThinkTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fleet.Close() }()
	waitFor(t, "registration", func() bool { return srv.AgentCount() == 24 })

	var outcomes []*platform.RoundOutcome
	err = srv.RunPipelined(context.Background(), 5,
		func(t int) ([]int, []int) { return []int{2, 1, 1}, nil },
		func(out *platform.RoundOutcome) error {
			outcomes = append(outcomes, out)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 5 {
		t.Fatalf("got %d outcomes, want 5", len(outcomes))
	}
	for i, out := range outcomes {
		if out.Bids != 24 {
			t.Fatalf("pipelined round %d gathered %d bids, want 24", i, out.Bids)
		}
		if len(out.Awards) == 0 {
			t.Fatalf("pipelined round %d produced no awards", i)
		}
	}
}

// TestFleetRejectsBadConfig: a zero-agent fleet is a configuration
// error, not a silent no-op.
func TestFleetRejectsBadConfig(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", Config{}); err == nil {
		t.Fatal("want config error for Agents=0")
	}
}
