package platform

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"edgeauction/internal/obs"
)

// rawPeer speaks the JSON-line protocol by hand so tests can misbehave in
// ways the Agent client never would: resetting mid-round, refusing to
// read, submitting nothing.
type rawPeer struct {
	t    *testing.T
	conn *net.TCPConn
	r    *bufio.Reader
}

func dialRaw(t *testing.T, addr string, id, capacity int) *rawPeer {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{t: t, conn: c.(*net.TCPConn), r: bufio.NewReader(c)}
	p.send(&Envelope{Type: TypeHello, Hello: &HelloMsg{AgentID: id, Capacity: capacity}})
	if env := p.recv(); env.Type != TypeWelcome {
		t.Fatalf("peer %d: expected welcome, got %q", id, env.Type)
	}
	return p
}

func (p *rawPeer) send(env *Envelope) {
	p.t.Helper()
	data, err := json.Marshal(env)
	if err != nil {
		p.t.Fatal(err)
	}
	if _, err := p.conn.Write(append(data, '\n')); err != nil {
		p.t.Fatalf("raw send: %v", err)
	}
}

func (p *rawPeer) recv() *Envelope {
	p.t.Helper()
	if err := p.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		p.t.Fatal(err)
	}
	line, err := p.r.ReadBytes('\n')
	if err != nil {
		p.t.Fatalf("raw recv: %v", err)
	}
	var env Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		p.t.Fatalf("raw recv: %v", err)
	}
	return &env
}

// reset aborts the connection with an RST (SO_LINGER 0) instead of a
// graceful FIN, as a crashing microservice would.
func (p *rawPeer) reset() {
	p.t.Helper()
	if err := p.conn.SetLinger(0); err != nil {
		p.t.Fatal(err)
	}
	if err := p.conn.Close(); err != nil {
		p.t.Fatal(err)
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for start := time.Now(); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRoundSurvivesAgentReset breaks one of two agents' sessions while
// the round is gathering bids — with a TCP reset, or with a bid line over
// the frame cap — and the round must still clear on the surviving
// agent's bid. The broken session alone is dropped: one agent_drop trace
// event with the read-error cause, counted in platform_agent_drops_total.
// The drop releases the broken agent from the round, so after a reset,
// which the server sees at once, the round closes on the surviving bid
// before its deadline: no agent_timeout event.
func TestRoundSurvivesAgentReset(t *testing.T) {
	const deadline = 250 * time.Millisecond
	for _, tc := range []struct {
		name         string
		breakSession func(bad *rawPeer, round int)
		prompt       bool
	}{
		{"reset", func(bad *rawPeer, _ int) { bad.reset() }, true},
		// The server may close the connection before the whole line is
		// written, so the write's own error is expected either way.
		{"over-cap-line", func(bad *rawPeer, round int) {
			go func() { _, _ = bad.conn.Write(overCapLine(bidLine(round))) }()
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &obs.Recorder{}
			srv, err := NewServer("127.0.0.1:0", ServerConfig{
				BidDeadline: deadline,
				Tracer:      rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = srv.Close() }()

			good := dialRaw(t, srv.Addr(), 1, 0)
			defer func() { _ = good.conn.Close() }()
			bad := dialRaw(t, srv.Addr(), 2, 0)
			defer func() { _ = bad.conn.Close() }()
			waitCond(t, "both agents registered", func() bool { return srv.AgentCount() == 2 })

			type roundRes struct {
				out *RoundOutcome
				err error
			}
			done := make(chan roundRes, 1)
			start := time.Now()
			go func() {
				out, err := srv.RunRound([]int{2}, nil)
				done <- roundRes{out, err}
			}()

			// Both agents receive the announce (so the break cannot race the
			// server's own announce write); then the bad one breaks its
			// session instead of bidding.
			ann := good.recv()
			if ann.Type != TypeAnnounce {
				t.Fatalf("expected announce, got %q", ann.Type)
			}
			if env := bad.recv(); env.Type != TypeAnnounce {
				t.Fatalf("expected announce, got %q", env.Type)
			}
			tc.breakSession(bad, ann.Announce.T)
			good.send(&Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
				T: ann.Announce.T, Bids: []WireBid{{Alt: 1, Price: 10, Covers: []int{0}, Units: 2}},
			}})

			res := <-done
			if elapsed := time.Since(start); tc.prompt && elapsed >= deadline {
				t.Errorf("round took %v, want it closed before the %v deadline by agent 2's release", elapsed, deadline)
			}
			if res.err != nil {
				t.Fatalf("round failed: %v", res.err)
			}
			if res.out.Infeasible || len(res.out.Awards) != 1 || res.out.Awards[0].Bidder != 1 {
				t.Fatalf("unexpected outcome: %+v", res.out)
			}
			waitCond(t, "broken agent deregistered", func() bool { return srv.AgentCount() == 1 })

			drops := rec.ByKind(obs.KindAgentDrop)
			if len(drops) != 1 {
				t.Fatalf("agent_drop events = %d, want 1 (%v)", len(drops), rec.Kinds())
			}
			drop := drops[0].(obs.AgentDrop)
			if drop.ID != 2 || drop.Cause != obs.DropReadError {
				t.Fatalf("drop = %+v, want agent 2 with cause %q", drop, obs.DropReadError)
			}
			if got := srv.Metrics().Counter("platform_agent_drops_total").Value(); got != 1 {
				t.Errorf("platform_agent_drops_total = %d, want 1", got)
			}
			if timeouts := rec.ByKind(obs.KindAgentTimeout); tc.prompt && len(timeouts) != 0 {
				t.Errorf("agent_timeout events = %v, want none: the drop released agent 2", timeouts)
			}
			sum := srv.Summary()
			if sum == nil || sum.Rounds != 1 || sum.InfeasibleRounds != 0 {
				t.Fatalf("summary = %+v, want 1 feasible round", sum)
			}
		})
	}
}

// TestLateJoinerCannotCloseRound registers a second agent after round
// 1's announce. The server welcomes it into round 2, so its bid tagged
// round 1 must neither count toward the round's pending agents nor enter
// its instance: the round waits for the announced agent's bid and awards
// that agent.
func TestLateJoinerCannotCloseRound(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{BidDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	announced := dialRaw(t, srv.Addr(), 1, 0)
	defer func() { _ = announced.conn.Close() }()
	waitCond(t, "agent 1 registered", func() bool { return srv.AgentCount() == 1 })

	type roundRes struct {
		out *RoundOutcome
		err error
	}
	done := make(chan roundRes, 1)
	go func() {
		out, err := srv.RunRound([]int{2}, nil)
		done <- roundRes{out, err}
	}()
	ann := announced.recv()
	if ann.Type != TypeAnnounce {
		t.Fatalf("expected announce, got %q", ann.Type)
	}
	bid := func(p *rawPeer, price float64) {
		p.send(&Envelope{Type: TypeBid, Bid: &BidSubmitMsg{
			T: ann.Announce.T, Bids: []WireBid{{Alt: 1, Price: price, Covers: []int{0}, Units: 2}},
		}})
	}

	late := dialRaw(t, srv.Addr(), 2, 0)
	defer func() { _ = late.conn.Close() }()
	bid(late, 50)
	select {
	case res := <-done:
		t.Fatalf("round closed on the late joiner's bid: %+v (err %v)", res.out, res.err)
	case <-time.After(300 * time.Millisecond):
	}

	bid(announced, 10)
	res := <-done
	if res.err != nil {
		t.Fatalf("round failed: %v", res.err)
	}
	if res.out.Bids != 1 || len(res.out.Awards) != 1 || res.out.Awards[0].Bidder != 1 {
		t.Fatalf("outcome = %+v, want agent 1's bid alone, awarded", res.out)
	}
}

// bidLine is a valid one-bid line for the round, without its newline.
func bidLine(round int) []byte {
	return []byte(fmt.Sprintf(`{"type":"bid","bid":{"t":%d,"bids":[{"alt":1,"price":1,"covers":[0],"units":2}]}}`, round))
}

// overCapLine pads a valid JSON line with spaces to one byte over
// maxFrameBytes, newline included: without the cap it would decode.
func overCapLine(line []byte) []byte {
	padded := bytes.Repeat([]byte{' '}, maxFrameBytes+1)
	copy(padded, line)
	padded[len(padded)-1] = '\n'
	return padded
}

// TestSlowWriterDropped registers a peer that never reads and announces a
// round whose demand payload far exceeds the socket buffers with a tiny
// write timeout: the blocked announce must hit the deadline, the peer
// must be dropped with the write-timeout cause, and the round must
// complete (infeasibly, as nobody is left to bid) without hanging.
func TestSlowWriterDropped(t *testing.T) {
	rec := &obs.Recorder{}
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		BidDeadline:  50 * time.Millisecond,
		WriteTimeout: 20 * time.Millisecond,
		Tracer:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	peer := dialRaw(t, srv.Addr(), 1, 0)
	defer func() { _ = peer.conn.Close() }()
	waitCond(t, "peer registered", func() bool { return srv.AgentCount() == 1 })

	// ~4M demand entries marshal to ~8MB of JSON — beyond anything the
	// kernel will buffer for a peer that never reads, even with socket
	// buffer auto-tuning.
	demand := make([]int, 1<<22)
	for i := range demand {
		demand[i] = 1
	}
	out, err := srv.RunRound(demand, nil)
	if err != nil {
		t.Fatalf("round failed: %v", err)
	}
	if !out.Infeasible || out.Bids != 0 {
		t.Fatalf("outcome = %+v, want infeasible round with no bids", out)
	}
	if srv.AgentCount() != 0 {
		t.Fatalf("agent count = %d, want 0 after write-timeout drop", srv.AgentCount())
	}

	drops := rec.ByKind(obs.KindAgentDrop)
	if len(drops) != 1 {
		t.Fatalf("agent_drop events = %d, want 1 (%v)", len(drops), rec.Kinds())
	}
	drop := drops[0].(obs.AgentDrop)
	if drop.ID != 1 || drop.Cause != obs.DropWriteTimeout {
		t.Fatalf("drop = %+v, want agent 1 with cause %q", drop, obs.DropWriteTimeout)
	}
	sum := srv.Summary()
	if sum == nil || sum.Rounds != 1 || sum.InfeasibleRounds != 1 {
		t.Fatalf("summary = %+v, want 1 infeasible round", sum)
	}
}

// TestRoundCancelledByContext cancels a round mid-gather: the round must
// abort with the context error, emit round_abort and cancelled
// agent-timeout events, leave the silent agent connected, and leave the
// mechanism summary untouched (the aborted round never ran).
func TestRoundCancelledByContext(t *testing.T) {
	rec := &obs.Recorder{}
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		BidDeadline: 30 * time.Second, // round would hang without the cancel
		Tracer:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	agent, err := Dial(srv.Addr(), AgentConfig{ID: 1}) // no policy: never bids
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	waitCond(t, "agent registered", func() bool { return srv.AgentCount() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.RunRoundContext(ctx, []int{1}, nil)
		done <- err
	}()
	waitCond(t, "announce delivered", func() bool { return agent.RoundsSeen() == 1 })
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled round did not return")
	}

	aborts := rec.ByKind(obs.KindRoundAbort)
	if len(aborts) != 1 {
		t.Fatalf("round_abort events = %d, want 1 (%v)", len(aborts), rec.Kinds())
	}
	if ab := aborts[0].(obs.RoundAbort); ab.Pending != 1 {
		t.Fatalf("abort = %+v, want 1 pending agent", ab)
	}
	timeouts := rec.ByKind(obs.KindAgentTimeout)
	if len(timeouts) != 1 {
		t.Fatalf("agent_timeout events = %d, want 1", len(timeouts))
	}
	if to := timeouts[0].(obs.AgentTimeout); to.ID != 1 || to.Cause != obs.TimeoutCancelled {
		t.Fatalf("timeout = %+v, want agent 1 cancelled", to)
	}
	if rec.Count(obs.KindRoundClose) != 0 {
		t.Fatal("aborted round must not emit round_close")
	}
	if srv.AgentCount() != 1 {
		t.Fatalf("agent count = %d, want 1 (cancel must not drop agents)", srv.AgentCount())
	}
	if sum := srv.Summary(); sum != nil && sum.Rounds != 0 {
		t.Fatalf("summary = %+v, want no completed rounds", sum)
	}

	// The server must remain usable: a follow-up round with a live context
	// completes normally (infeasibly, since the agent never bids).
	srv.cfg.BidDeadline = 50 * time.Millisecond
	out, err := srv.RunRound([]int{1}, nil)
	if err != nil {
		t.Fatalf("follow-up round: %v", err)
	}
	if !out.Infeasible {
		t.Fatalf("follow-up outcome = %+v", out)
	}
	if sum := srv.Summary(); sum == nil || sum.Rounds != 1 {
		t.Fatalf("summary after follow-up = %+v, want 1 round", sum)
	}
}
