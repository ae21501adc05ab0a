package platform

import (
	"encoding/json"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// coveringPolicy bids to cover every announced needy microservice at the
// given price.
func coveringPolicy(price float64, units int) BidPolicy {
	return func(msg *AnnounceMsg) []WireBid {
		covers := make([]int, len(msg.Demand))
		for i := range covers {
			covers[i] = i
		}
		return []WireBid{{Alt: 0, Price: price, Covers: covers, Units: units}}
	}
}

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.BidDeadline == 0 {
		cfg.BidDeadline = 300 * time.Millisecond
	}
	srv, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	})
	return srv
}

func dialAgent(t *testing.T, addr string, cfg AgentConfig) *Agent {
	t.Helper()
	a, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial agent %d: %v", cfg.ID, err)
	}
	t.Cleanup(func() {
		if err := a.Close(); err != nil {
			t.Errorf("close agent %d: %v", cfg.ID, err)
		}
	})
	return a
}

func TestPlatformSingleRound(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	cheap := dialAgent(t, srv.Addr(), AgentConfig{ID: 1, Policy: coveringPolicy(10, 5)})
	dear := dialAgent(t, srv.Addr(), AgentConfig{ID: 2, Policy: coveringPolicy(30, 5)})

	out, err := srv.RunRound([]int{3, 2}, []int{101, 102})
	if err != nil {
		t.Fatalf("run round: %v", err)
	}
	if out.Infeasible {
		t.Fatal("round unexpectedly infeasible")
	}
	if out.Bids != 2 {
		t.Fatalf("want 2 collected bids, got %d", out.Bids)
	}
	if len(out.Awards) != 1 || out.Awards[0].Bidder != 1 {
		t.Fatalf("want single award to agent 1, got %+v", out.Awards)
	}
	if out.Awards[0].Payment < 10 {
		t.Fatalf("payment %v below bid price 10 (individual rationality)", out.Awards[0].Payment)
	}

	// The result broadcast must reach both agents; the winner records the
	// award.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && cheap.Earnings() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := cheap.Earnings(); got != out.Awards[0].Payment {
		t.Fatalf("winner earnings %v != payment %v", got, out.Awards[0].Payment)
	}
	if dear.Earnings() != 0 {
		t.Fatalf("loser earned %v, want 0", dear.Earnings())
	}
}

func TestPlatformInfeasibleRound(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 1, Policy: coveringPolicy(10, 1)})

	out, err := srv.RunRound([]int{5}, nil) // one unit per round < demand 5
	if err != nil {
		t.Fatalf("run round: %v", err)
	}
	if !out.Infeasible {
		t.Fatal("round should be infeasible with a single 1-unit bid")
	}
}

func TestPlatformCapacityExhaustion(t *testing.T) {
	// Agent 1 has lifetime capacity for one coverage slot; after winning
	// round 1 its bids are excluded and agent 2 must win round 2.
	srv := startServer(t, ServerConfig{})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 1, Capacity: 1, Policy: coveringPolicy(10, 5)})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 2, Policy: coveringPolicy(20, 5)})

	first, err := srv.RunRound([]int{2}, nil)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if len(first.Awards) != 1 || first.Awards[0].Bidder != 1 {
		t.Fatalf("round 1: want agent 1 to win, got %+v", first.Awards)
	}
	second, err := srv.RunRound([]int{2}, nil)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if len(second.Awards) != 1 || second.Awards[0].Bidder != 2 {
		t.Fatalf("round 2: want agent 2 to win (agent 1 exhausted), got %+v", second.Awards)
	}
}

func TestPlatformParticipationWindow(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 1, Arrive: 2, Depart: 3, Policy: coveringPolicy(5, 5)})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 2, Policy: coveringPolicy(25, 5)})

	// Round 1: agent 1 not yet arrived; agent 2 wins despite higher price.
	out, err := srv.RunRound([]int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Awards) != 1 || out.Awards[0].Bidder != 2 {
		t.Fatalf("round 1: want agent 2, got %+v", out.Awards)
	}
	// Round 2: agent 1 active and cheaper.
	out, err = srv.RunRound([]int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Awards) != 1 || out.Awards[0].Bidder != 1 {
		t.Fatalf("round 2: want agent 1, got %+v", out.Awards)
	}
}

func TestPlatformDuplicateRegistrationRejected(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 7})
	if _, err := Dial(srv.Addr(), AgentConfig{ID: 7}); err == nil {
		t.Fatal("want duplicate registration to fail")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPlatformRejectsNonPositiveAgentID(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", AgentConfig{ID: 0}); err == nil {
		t.Fatal("want error for agent id 0")
	}
}

func TestPlatformManyAgentsConcurrently(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	const n = 20
	var wg sync.WaitGroup
	agents := make([]*Agent, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := Dial(srv.Addr(), AgentConfig{
				ID:     i + 1,
				Policy: coveringPolicy(float64(10+i), 2),
			})
			agents[i], errs[i] = a, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i+1, err)
		}
	}
	defer func() {
		for _, a := range agents {
			_ = a.Close()
		}
	}()
	if got := srv.AgentCount(); got != n {
		t.Fatalf("registered %d agents, want %d", got, n)
	}

	out, err := srv.RunRound([]int{4, 4, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Infeasible {
		t.Fatal("round infeasible with 20 agents")
	}
	if out.Bids != n {
		t.Fatalf("collected %d bids, want %d", out.Bids, n)
	}
	var paid float64
	for _, aw := range out.Awards {
		paid += aw.Payment
	}
	if paid < out.SocialCost {
		t.Fatalf("total payment %v below social cost %v", paid, out.SocialCost)
	}
}

func TestPlatformAgentDisconnectMidStream(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	quitter := dialAgent(t, srv.Addr(), AgentConfig{ID: 1, Policy: coveringPolicy(5, 5)})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 2, Policy: coveringPolicy(20, 5)})

	if _, err := srv.RunRound([]int{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := quitter.Close(); err != nil {
		t.Fatal(err)
	}
	// The server must notice the drop and clear the next round with the
	// remaining agent.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && srv.AgentCount() != 1 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.AgentCount(); got != 1 {
		t.Fatalf("agent count after disconnect = %d, want 1", got)
	}
	out, err := srv.RunRound([]int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Awards) != 1 || out.Awards[0].Bidder != 2 {
		t.Fatalf("want surviving agent 2 to win, got %+v", out.Awards)
	}
}

func TestPlatformShutdownNotifiesAgents(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{BidDeadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := Dial(srv.Addr(), AgentConfig{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-agent.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("agent did not observe server shutdown")
	}
	if !agent.ShutdownSeen() {
		t.Fatal("agent missed the shutdown notice")
	}
}

func TestPlatformSummaryAccumulates(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	for i := 1; i <= 3; i++ {
		dialAgent(t, srv.Addr(), AgentConfig{ID: i, Policy: coveringPolicy(float64(10*i), 3)})
	}
	if srv.Summary() != nil {
		t.Fatal("summary should be nil before the first round")
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		if _, err := srv.RunRound([]int{2}, nil); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}
	sum := srv.Summary()
	if sum.Rounds != rounds {
		t.Fatalf("summary rounds = %d, want %d", sum.Rounds, rounds)
	}
	if sum.SocialCost <= 0 || sum.TotalPayment < sum.SocialCost {
		t.Fatalf("implausible summary: %+v", sum)
	}
}

func TestPlatformAbstainingAgent(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 1}) // nil policy: abstains
	dialAgent(t, srv.Addr(), AgentConfig{ID: 2, Policy: coveringPolicy(15, 5)})
	out, err := srv.RunRound([]int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bids != 1 {
		t.Fatalf("collected %d bids, want 1 (agent 1 abstains)", out.Bids)
	}
	if len(out.Awards) != 1 || out.Awards[0].Bidder != 2 {
		t.Fatalf("want agent 2 award, got %+v", out.Awards)
	}
}

func TestPlatformServerAddrFormat(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	if !strings.HasPrefix(srv.Addr(), "127.0.0.1:") {
		t.Fatalf("unexpected addr %q", srv.Addr())
	}
}

func TestPlatformRunRoundAfterClose(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RunRound([]int{1}, nil); err == nil {
		t.Fatal("want error for RunRound after Close")
	}
}

func TestPlatformStaleRoundBidsIgnored(t *testing.T) {
	// A raw wire-level client that bids for the wrong round number: the
	// server must discard it and clear with the honest agent.
	srv := startServer(t, ServerConfig{})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 2, Policy: coveringPolicy(20, 5)})

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	enc := json.NewEncoder(raw)
	dec := json.NewDecoder(raw)
	if err := enc.Encode(Envelope{Type: TypeHello, Hello: &HelloMsg{AgentID: 1}}); err != nil {
		t.Fatal(err)
	}
	var welcome Envelope
	if err := dec.Decode(&welcome); err != nil || welcome.Type != TypeWelcome {
		t.Fatalf("welcome = %+v, err %v", welcome, err)
	}
	// Cheap bid tagged with a stale round number, sent before the round
	// even opens.
	if err := enc.Encode(Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
		T: 99, Bids: []WireBid{{Alt: 0, Price: 1, Covers: []int{0}, Units: 5}},
	}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the server buffer the stale bid

	out, err := srv.RunRound([]int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Awards) != 1 || out.Awards[0].Bidder != 2 {
		t.Fatalf("stale round-99 bid must be ignored; awards = %+v", out.Awards)
	}
}

func TestPlatformMalformedClientRejected(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	if _, err := raw.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The server must not register the client, and must stay healthy.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if srv.AgentCount() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.AgentCount() != 0 {
		t.Fatal("malformed client was registered")
	}
	dialAgent(t, srv.Addr(), AgentConfig{ID: 1, Policy: coveringPolicy(10, 5)})
	if _, err := srv.RunRound([]int{1}, nil); err != nil {
		t.Fatalf("server unhealthy after malformed client: %v", err)
	}
}

// TestPlatformHelloWithBadIDRejected: a hello with a non-positive id, an
// oversized count or an overflowing id range is refused with an error
// envelope before anything registers, a hello line over the frame cap is
// refused without a reply, and a normal multiplexed hello still
// registers afterwards.
func TestPlatformHelloWithBadIDRejected(t *testing.T) {
	srv := startServer(t, ServerConfig{})
	for _, tc := range []struct {
		hello   HelloMsg
		overCap bool // pad the line past maxFrameBytes: no reply at all
		reply   string
		agents  int
	}{
		{HelloMsg{AgentID: -3}, false, TypeError, 0},
		{HelloMsg{AgentID: 1, Count: 1_000_000_000}, false, TypeError, 0},
		{HelloMsg{AgentID: 1, Count: maxSessionAgents + 1}, false, TypeError, 0},
		{HelloMsg{AgentID: math.MaxInt - 2, Count: 4}, false, TypeError, 0},
		{HelloMsg{AgentID: 5, Capacity: 1}, true, "", 0},
		{HelloMsg{AgentID: 1, Count: 3}, false, TypeWelcome, 3},
	} {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = raw.Close() }()
		line, err := json.Marshal(Envelope{Type: TypeHello, Hello: &tc.hello})
		if err != nil {
			t.Fatal(err)
		}
		line = append(line, '\n')
		if tc.overCap {
			line = overCapLine(line[:len(line)-1])
		}
		// The server may close the connection before the whole line is
		// written, so the write's own error is left to the reply check.
		go func() { _, _ = raw.Write(line) }()
		var resp Envelope
		if err := json.NewDecoder(raw).Decode(&resp); err != nil && tc.reply != "" {
			t.Fatal(err)
		}
		if resp.Type != tc.reply || srv.AgentCount() != tc.agents {
			t.Fatalf("hello %+v: reply %q with %d agents registered, want %q with %d",
				tc.hello, resp.Type, srv.AgentCount(), tc.reply, tc.agents)
		}
	}
}

func TestPlatformAuditLog(t *testing.T) {
	var buf syncBuffer
	srv := startServer(t, ServerConfig{Audit: NewAudit(&buf)})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 1, Policy: coveringPolicy(10, 5)})

	if _, err := srv.RunRound([]int{2}, []int{42}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RunRound([]int{9000}, nil); err != nil { // infeasible
		t.Fatal(err)
	}

	records, err := ReadAudit(buf.reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("audit records = %d, want 2", len(records))
	}
	first := records[0]
	if first.T != 1 || first.Infeasible || len(first.Awards) != 1 {
		t.Fatalf("first record malformed: %+v", first)
	}
	if len(first.NeedyIDs) != 1 || first.NeedyIDs[0] != 42 {
		t.Fatalf("needy ids not audited: %+v", first.NeedyIDs)
	}
	if len(first.Bids) != 1 || first.Bids[0].Bidder != 1 {
		t.Fatalf("bids not audited: %+v", first.Bids)
	}
	if first.UnixMillis == 0 {
		t.Fatal("timestamp missing")
	}
	if !records[1].Infeasible {
		t.Fatal("second record should be infeasible")
	}
}

func TestReadAuditRejectsGarbage(t *testing.T) {
	if _, err := ReadAudit(strings.NewReader("nope\n")); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := ReadAudit(strings.NewReader(`{"kind":"other","t":1}` + "\n")); err == nil {
		t.Fatal("want kind error")
	}
	records, err := ReadAudit(strings.NewReader(""))
	if err != nil || len(records) != 0 {
		t.Fatalf("empty stream should parse to zero records: %v, %d", err, len(records))
	}
}

// syncBuffer is a mutex-guarded bytes buffer for concurrent audit writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *syncBuffer) reader() *strings.Reader {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.NewReader(string(b.buf))
}

func TestPlatformStaleThenLiveBidGathered(t *testing.T) {
	// Regression for the gather loop: a stale-tagged bid that races past
	// the announce-time drain must NOT knock its agent out of the pending
	// set — the agent's forthcoming current-round bid still counts.
	srv := startServer(t, ServerConfig{BidDeadline: 2 * time.Second})
	dialAgent(t, srv.Addr(), AgentConfig{ID: 2, Policy: coveringPolicy(20, 5)})

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	enc := json.NewEncoder(raw)
	dec := json.NewDecoder(raw)
	if err := enc.Encode(Envelope{Type: TypeHello, Hello: &HelloMsg{AgentID: 1}}); err != nil {
		t.Fatal(err)
	}
	var welcome Envelope
	if err := dec.Decode(&welcome); err != nil || welcome.Type != TypeWelcome {
		t.Fatalf("welcome = %+v, err %v", welcome, err)
	}

	type roundResult struct {
		out *RoundOutcome
		err error
	}
	done := make(chan roundResult, 1)
	go func() {
		out, err := srv.RunRound([]int{1}, nil)
		done <- roundResult{out, err}
	}()

	// Wait for the announce so the stale bid lands AFTER the server's
	// announce-time channel drain, i.e. inside the gather loop proper.
	var announce Envelope
	for {
		if err := dec.Decode(&announce); err != nil {
			t.Fatalf("waiting for announce: %v", err)
		}
		if announce.Type == TypeAnnounce {
			break
		}
	}
	tag := announce.Announce.T
	if err := enc.Encode(Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
		T: tag + 7, Bids: []WireBid{{Alt: 0, Price: 1, Covers: []int{0}, Units: 5}},
	}}); err != nil {
		t.Fatal(err)
	}
	// Give the gather loop time to consume and discard the stale message
	// before the live bid arrives.
	time.Sleep(100 * time.Millisecond)
	if err := enc.Encode(Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
		T: tag, Bids: []WireBid{{Alt: 0, Price: 1, Covers: []int{0}, Units: 5}},
	}}); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.out.Bids != 2 {
		t.Fatalf("want both live bids gathered, got %d", res.out.Bids)
	}
	if len(res.out.Awards) != 1 || res.out.Awards[0].Bidder != 1 {
		t.Fatalf("live bid after a stale one must still win; awards = %+v", res.out.Awards)
	}
}

func TestPlatformDuplicateBidNotDoubleCounted(t *testing.T) {
	// Regression for the fan-in gather loop: the reader keeps only the
	// first queued bid per agent, but once the forwarder has drained the
	// queue a resubmission slips through to fan-in. It must neither append
	// the agent's bids a second time nor decrement the pending count again
	// — the latter would clear the round while an honest slower agent is
	// still pending, silently dropping its bid.
	srv := startServer(t, ServerConfig{BidDeadline: 2 * time.Second})

	// Two raw wire-level clients so the test controls bid timing exactly.
	dialRaw := func(id int) (*json.Encoder, *json.Decoder) {
		t.Helper()
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = raw.Close() })
		enc := json.NewEncoder(raw)
		dec := json.NewDecoder(raw)
		if err := enc.Encode(Envelope{Type: TypeHello, Hello: &HelloMsg{AgentID: id}}); err != nil {
			t.Fatal(err)
		}
		var welcome Envelope
		if err := dec.Decode(&welcome); err != nil || welcome.Type != TypeWelcome {
			t.Fatalf("welcome = %+v, err %v", welcome, err)
		}
		return enc, dec
	}
	enc1, dec1 := dialRaw(1)
	enc2, dec2 := dialRaw(2)

	type roundResult struct {
		out *RoundOutcome
		err error
	}
	done := make(chan roundResult, 1)
	go func() {
		out, err := srv.RunRound([]int{1}, nil)
		done <- roundResult{out, err}
	}()

	waitAnnounce := func(dec *json.Decoder) int {
		t.Helper()
		for {
			var env Envelope
			if err := dec.Decode(&env); err != nil {
				t.Fatalf("waiting for announce: %v", err)
			}
			if env.Type == TypeAnnounce {
				return env.Announce.T
			}
		}
	}
	tag := waitAnnounce(dec1)
	_ = waitAnnounce(dec2)

	// Agent 1 answers, then resubmits a cheaper current-round bid. The
	// gaps let the forwarder drain the first message so the duplicate
	// reaches fan-in rather than being dropped at the reader.
	if err := enc1.Encode(Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
		T: tag, Bids: []WireBid{{Alt: 0, Price: 10, Covers: []int{0}, Units: 5}},
	}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := enc1.Encode(Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
		T: tag, Bids: []WireBid{{Alt: 1, Price: 0.5, Covers: []int{0}, Units: 5}},
	}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	// Agent 2 (the honest slow bidder) undercuts agent 1's first bid. If
	// the duplicate had decremented pending again, the round would already
	// have cleared without this bid.
	if err := enc2.Encode(Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
		T: tag, Bids: []WireBid{{Alt: 0, Price: 1, Covers: []int{0}, Units: 5}},
	}}); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.out.Bids != 2 {
		t.Fatalf("gathered %d bids, want 2 (first from agent 1 + agent 2; duplicate discarded)", res.out.Bids)
	}
	if len(res.out.Awards) != 1 || res.out.Awards[0].Bidder != 2 {
		t.Fatalf("slow honest agent 2 must win; awards = %+v", res.out.Awards)
	}
}

func TestPlatformCloseRacesRunRound(t *testing.T) {
	// Close racing a round in flight must neither panic nor deadlock, and
	// a second Close must be an error-free no-op. Run several iterations
	// with staggered close times to vary the interleaving under -race.
	for iter := 0; iter < 4; iter++ {
		srv, err := NewServer("127.0.0.1:0", ServerConfig{BidDeadline: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		agents := make([]*Agent, 0, 4)
		for id := 1; id <= 4; id++ {
			a, err := Dial(srv.Addr(), AgentConfig{ID: id, Policy: coveringPolicy(float64(10*id), 5)})
			if err != nil {
				t.Fatal(err)
			}
			agents = append(agents, a)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = srv.RunRound([]int{2, 1}, nil) // may legitimately error if Close wins
		}()
		go func(iter int) {
			defer wg.Done()
			time.Sleep(time.Duration(iter*20) * time.Millisecond)
			_ = srv.Close()
		}(iter)
		wg.Wait()
		if err := srv.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		for _, a := range agents {
			_ = a.Close()
		}
	}
}
