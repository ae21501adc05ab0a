// Package loadgen drives edge-cloud-scale synthetic agent fleets
// against a platform server for load benchmarking. A Fleet multiplexes
// many agents over few TCP sessions (HelloMsg.Count registers a
// contiguous id range per connection; BidSubmitMsg.Multi batches the
// whole range's round answers into one write), so 100k concurrent
// agents fit comfortably under ordinary file-descriptor limits while
// still exercising the server's full decode/ingest path per agent.
//
// Fleet bidding is deterministic: every agent bids every round with a
// bid that is a pure function of its id and the round's demand length,
// so a serial and a pipelined server driven by identical fleets gather
// identical instances.
package loadgen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edgeauction/internal/platform"
)

// Config parameterizes a Fleet. Agent ids run from 1 to Agents; every
// agent has unlimited capacity and submits one bid per round.
type Config struct {
	// Agents is the total number of agents (required, > 0).
	Agents int
	// AgentsPerConn is how many agents share one multiplexed session;
	// 0 means DefaultAgentsPerConn.
	AgentsPerConn int
	// ThinkTime is the simulated per-session decision latency between
	// receiving an announce and submitting the batch of bids. It models
	// the time real microservices spend computing bids, which is exactly
	// the window a pipelined server hides its settle phase in.
	ThinkTime time.Duration
}

// DefaultAgentsPerConn is the session multiplexing factor when
// Config.AgentsPerConn is zero: 100k agents ≈ 500 sockets.
const DefaultAgentsPerConn = 200

// sessionTimeout bounds each session's connection attempt, its
// registration reply, and each of its sends.
const sessionTimeout = 5 * time.Second

func (c Config) agentsPerConn() int {
	if c.AgentsPerConn <= 0 {
		return DefaultAgentsPerConn
	}
	return c.AgentsPerConn
}

// Fleet is a set of multiplexed load-generator sessions.
type Fleet struct {
	cfg      Config
	sessions []*fleetSession

	bidsSent   atomic.Int64
	awards     atomic.Int64
	rejections atomic.Int64
	rounds     atomic.Int64
	errs       atomic.Int64

	wg sync.WaitGroup
}

// Dial connects a fleet to the platform at addr: it opens
// ceil(Agents/AgentsPerConn) sessions, registers each id range, and
// starts the per-session bid loops. Close the fleet to disconnect.
func Dial(addr string, cfg Config) (*Fleet, error) {
	if cfg.Agents <= 0 {
		return nil, fmt.Errorf("loadgen: Agents must be positive, got %d", cfg.Agents)
	}
	f := &Fleet{cfg: cfg}
	per := cfg.agentsPerConn()
	for first := 1; first <= cfg.Agents; first += per {
		count := min(per, cfg.Agents-first+1)
		fs, err := f.dialSession(addr, first, count)
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		f.sessions = append(f.sessions, fs)
	}
	for _, fs := range f.sessions {
		f.wg.Add(1)
		go func(fs *fleetSession) {
			defer f.wg.Done()
			fs.loop()
		}(fs)
	}
	return f, nil
}

// Sessions returns the number of TCP connections carrying the fleet.
func (f *Fleet) Sessions() int { return len(f.sessions) }

// BidsSent returns the total bid messages submitted.
func (f *Fleet) BidsSent() int64 { return f.bidsSent.Load() }

// Awards returns the total awards observed across all agents.
func (f *Fleet) Awards() int64 { return f.awards.Load() }

// Rejections returns the admission-control sheds observed.
func (f *Fleet) Rejections() int64 { return f.rejections.Load() }

// RoundsSeen returns the total announces observed (summed per session).
func (f *Fleet) RoundsSeen() int64 { return f.rounds.Load() }

// Errs returns the number of session errors observed.
func (f *Fleet) Errs() int64 { return f.errs.Load() }

// Close disconnects every session and waits for their loops to exit.
func (f *Fleet) Close() error {
	for _, fs := range f.sessions {
		_ = fs.raw.Close()
	}
	f.wg.Wait()
	return nil
}

// fleetSession is one multiplexed connection carrying agents
// first..first+count-1. It speaks the platform's JSON-line protocol
// directly so the hot path can reuse one encoder buffer per session.
type fleetSession struct {
	f     *Fleet
	raw   net.Conn
	r     *bufio.Reader
	enc   []byte // reusable encode buffer for submissions
	first int
	count int

	// The session's batch, pre-encoded once per demand length and split
	// around the round tag so each round is a byte splice, not a marshal
	// — the fleet then costs the benchmark core almost nothing, like a
	// real remote fleet would.
	staticHead []byte
	staticTail []byte
	staticD    int // demand length the static batch was built for
}

// send writes env as one JSON line, bounded by the fleet write timeout.
func (fs *fleetSession) send(env *platform.Envelope) error {
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("loadgen: marshal %s: %w", env.Type, err)
	}
	fs.enc = append(append(fs.enc[:0], data...), '\n')
	if err := fs.raw.SetWriteDeadline(time.Now().Add(sessionTimeout)); err != nil {
		return err
	}
	_, err = fs.raw.Write(fs.enc)
	return err
}

// recv reads one envelope; timeout 0 means no deadline.
func (fs *fleetSession) recv(timeout time.Duration) (*platform.Envelope, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := fs.raw.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	line, err := fs.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	var env platform.Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("loadgen: bad JSON from platform: %w", err)
	}
	return &env, nil
}

func (f *Fleet) dialSession(addr string, first, count int) (*fleetSession, error) {
	raw, err := net.DialTimeout("tcp", addr, sessionTimeout)
	if err != nil {
		return nil, fmt.Errorf("loadgen: dial %s: %w", addr, err)
	}
	fs := &fleetSession{f: f, raw: raw, r: bufio.NewReader(raw), first: first, count: count}
	hello := &platform.Envelope{Type: platform.TypeHello, Hello: &platform.HelloMsg{
		AgentID: first, Count: count,
	}}
	if err := fs.send(hello); err != nil {
		_ = raw.Close()
		return nil, err
	}
	env, err := fs.recv(sessionTimeout)
	if err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("loadgen: session %d registration: %w", first, err)
	}
	switch env.Type {
	case platform.TypeWelcome:
	case platform.TypeReject:
		_ = raw.Close()
		code := ""
		if env.Reject != nil {
			code = env.Reject.Code
		}
		return nil, fmt.Errorf("loadgen: session %d rejected: %s", first, code)
	default:
		_ = raw.Close()
		return nil, fmt.Errorf("loadgen: session %d: expected welcome, got %q", first, env.Type)
	}
	return fs, nil
}

func (fs *fleetSession) loop() {
	for {
		env, err := fs.recv(0)
		if err != nil {
			return // connection closed (fleet Close or server gone)
		}
		switch env.Type {
		case platform.TypeAnnounce:
			fs.onAnnounce(env.Announce)
		case platform.TypeResult:
			if env.Result != nil {
				for _, aw := range env.Result.Awards {
					if aw.Bidder >= fs.first && aw.Bidder < fs.first+fs.count {
						fs.f.awards.Add(1)
					}
				}
			}
		case platform.TypeReject:
			fs.f.rejections.Add(1)
		case platform.TypeShutdown:
			return
		case platform.TypeError:
			fs.f.errs.Add(1)
			return
		}
	}
}

// onAnnounce builds and submits the whole session's round answer as one
// Multi batch after the configured think time.
func (fs *fleetSession) onAnnounce(msg *platform.AnnounceMsg) {
	if msg == nil || len(msg.Demand) == 0 {
		return
	}
	fs.f.rounds.Add(1)
	if fs.f.cfg.ThinkTime > 0 {
		time.Sleep(fs.f.cfg.ThinkTime)
	}
	if err := fs.sendStatic(msg); err != nil {
		fs.f.errs.Add(1)
		return
	}
	fs.f.bidsSent.Add(int64(fs.count))
}

// staticBatch builds the session's round answer for a d-needy round: one
// bid per agent whose price, covers and units are pure functions of the
// agent id, so identically-driven serial and pipelined servers gather
// identical instances.
func (fs *fleetSession) staticBatch(d int) *platform.BidSubmitMsg {
	msg := &platform.BidSubmitMsg{Multi: make([]platform.AgentBids, fs.count)}
	for i := range msg.Multi {
		id := fs.first + i
		k := id % d
		covers := []int{k}
		if d > 1 && id%3 == 0 {
			covers = append(covers, (k+1)%d)
		}
		msg.Multi[i] = platform.AgentBids{Agent: id, Bids: []platform.WireBid{{
			Price:  float64(5 + (id*7)%60),
			Covers: covers,
			Units:  1 + id%3,
		}}}
	}
	return msg
}

// sendStatic submits the pre-encoded batch with only the round tag
// spliced in, re-encoding only when the demand shape changes.
func (fs *fleetSession) sendStatic(msg *platform.AnnounceMsg) error {
	d := len(msg.Demand)
	if fs.staticHead == nil || fs.staticD != d {
		body, err := json.Marshal(fs.staticBatch(d))
		if err != nil {
			return fmt.Errorf("loadgen: marshal static batch: %w", err)
		}
		const tPrefix = `{"t":0`
		if string(body[:len(tPrefix)]) != tPrefix {
			return fmt.Errorf("loadgen: unexpected static batch layout %q", body[:len(tPrefix)])
		}
		fs.staticHead = []byte(`{"type":"bid","bid":{"t":`)
		fs.staticTail = append(body[len(tPrefix):], '}', '\n')
		fs.staticD = d
	}
	fs.enc = append(fs.enc[:0], fs.staticHead...)
	fs.enc = strconv.AppendInt(fs.enc, int64(msg.T), 10)
	fs.enc = append(fs.enc, fs.staticTail...)
	if err := fs.raw.SetWriteDeadline(time.Now().Add(sessionTimeout)); err != nil {
		return err
	}
	_, err := fs.raw.Write(fs.enc)
	return err
}
