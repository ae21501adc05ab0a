package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"edgeauction/internal/obs"
	"edgeauction/internal/platform"
)

// bidDeadline is the SUT's bid window. Every agent answers each announce
// at once, so a round closes on its last batch long before this fires;
// only the withhold control waits it out, and it uses controlDeadline.
const (
	bidDeadline     = 10 * time.Second
	controlDeadline = 300 * time.Millisecond
)

// sutProcs is the SUT's pinned GOMAXPROCS: the host's processors, at most
// two, so the measured configuration does not change with the host size.
func sutProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runOptions configures one server lifetime.
type runOptions struct {
	w       workload
	tr      *traffic
	seed    int64
	workdir string
	tracer  obs.Tracer
	// corrupt installs ServerConfig.Fault.CorruptPayment (negative control).
	corrupt bool
	// withhold makes the fleet's first session skip its batch in the
	// first measured round (negative control).
	withhold bool
}

// roundRec is what the SUT round loop saw of one RunRound call.
type roundRec struct {
	t          int
	start      time.Time
	dur        time.Duration
	err        error
	awards     []platform.WireAward
	socialCost float64
	infeasible bool
	bids       int
	// alloc is the SUT heap bytes allocated during the call.
	alloc uint64
	// dropped reports an agent drop or rejection during the round.
	dropped bool
	// mismatch is set by the correctness gate.
	mismatch bool
}

// failed applies the benchmark's round-failure rule.
func (r *roundRec) failed(expectBids int) bool {
	return r.err != nil || r.infeasible || r.dropped || r.mismatch || r.bids != expectBids
}

// serverRun is one SUT lifetime: a platform server, its fleet process and
// every round cleared on it.
type serverRun struct {
	opts    *runOptions
	srv     *platform.Server
	wal     *platform.WAL
	walPath string

	fleet    *exec.Cmd
	fleetOut *bufio.Reader
	report   fleetReport

	drops, rejects         *obs.Counter
	dropCount, rejectCount int64

	heap         []metrics.Sample
	rounds       []roundRec
	measuredFrom int
	setup        time.Duration
}

// startRun brings up a server and its fleet and runs the warmup rounds.
// The elapsed time is the run's set-up time.
func startRun(o *runOptions) (*serverRun, error) {
	start := time.Now()
	cfg := platform.ServerConfig{BidDeadline: bidDeadline, WriteTimeout: bidDeadline, Tracer: o.tracer}
	if o.corrupt {
		cfg.Fault.CorruptPayment = func(_ int, a platform.WireAward) float64 { return a.Payment + 0.01 }
	}
	if o.withhold {
		cfg.BidDeadline = controlDeadline
	}
	r := &serverRun{opts: o, heap: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	if o.w.wal {
		dir, err := os.MkdirTemp(o.workdir, "wal-")
		if err != nil {
			return nil, fmt.Errorf("create WAL dir: %w", err)
		}
		r.walPath = filepath.Join(dir, "wal.jsonl")
		if r.wal, err = platform.CreateWAL(r.walPath, false); err != nil {
			return nil, err
		}
		cfg.WAL = r.wal
	}
	srv, err := platform.NewServer("127.0.0.1:0", cfg)
	if err != nil {
		r.removeWAL()
		return nil, err
	}
	r.srv = srv
	r.drops = srv.Metrics().Counter("platform_agent_drops_total")
	r.rejects = srv.Metrics().Counter("platform_bids_rejected_total")

	exe, err := os.Executable()
	if err != nil {
		r.abort()
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	withhold := 0
	if o.withhold {
		withhold = o.w.warmup + 1
	}
	cmd := exec.Command(exe, "fleet", "-addr", srv.Addr(), "-workload", o.w.name,
		"-seed", strconv.FormatInt(o.seed, 10), "-withhold", strconv.Itoa(withhold))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		r.abort()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		r.abort()
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	r.fleet = cmd
	r.fleetOut = bufio.NewReader(out)
	line, err := readLineTimeout(r.fleetOut, time.Minute)
	if err != nil || line != "ready" {
		r.abort()
		return nil, fmt.Errorf("fleet did not register: %q %v", line, err)
	}
	// "ready" follows every session's welcome, so the whole fleet is in
	// the server's agent table.
	if n := srv.AgentCount(); n != o.w.agents {
		r.abort()
		return nil, fmt.Errorf("registered %d agents, want %d", n, o.w.agents)
	}
	for i := 0; i < o.w.warmup; i++ {
		r.round()
	}
	r.setup = time.Since(start)
	return r, nil
}

// round clears one round and records it.
func (r *serverRun) round() {
	d0, j0 := r.drops.Value(), r.rejects.Value()
	a0 := r.heapAllocs()
	rec := roundRec{t: len(r.rounds) + 1, start: time.Now()}
	out, err := r.srv.RunRound(r.opts.w.demand, r.opts.tr.needyIDs)
	rec.dur = time.Since(rec.start)
	rec.alloc = r.heapAllocs() - a0
	rec.err = err
	if out != nil {
		rec.t = out.T
		rec.awards = out.Awards
		rec.socialCost = out.SocialCost
		rec.infeasible = out.Infeasible
		rec.bids = out.Bids
	}
	rec.dropped = r.drops.Value() != d0 || r.rejects.Value() != j0
	r.rounds = append(r.rounds, rec)
}

// heapAllocs is the SUT's cumulative heap allocation in bytes.
func (r *serverRun) heapAllocs() uint64 {
	metrics.Read(r.heap)
	return r.heap[0].Value.Uint64()
}

// measure clears rounds back to back for at least d and at least
// minRounds rounds. It returns the wall time and the SUT's peak RSS once
// minRounds rounds are done: the platform keeps per-round history, so a
// peak taken at the end would grow with the rounds a faster build fits
// into d.
func (r *serverRun) measure(d time.Duration, minRounds int) (wall time.Duration, rssMB float64) {
	runtime.GC()
	r.measuredFrom = len(r.rounds)
	start := time.Now()
	for time.Since(start) < d || len(r.rounds)-r.measuredFrom < minRounds {
		r.round()
		if len(r.rounds)-r.measuredFrom == minRounds {
			rssMB = maxRSSMB()
		}
	}
	return time.Since(start), rssMB
}

// measured returns the timed rounds.
func (r *serverRun) measured() []roundRec { return r.rounds[r.measuredFrom:] }

// close shuts the server down, collects the fleet's report and waits for
// the fleet process to exit.
func (r *serverRun) close() error {
	// Closing deregisters every agent, so read the counters first.
	r.dropCount, r.rejectCount = r.drops.Value(), r.rejects.Value()
	err := r.srv.Close()
	line, rerr := readLineTimeout(r.fleetOut, time.Minute)
	if rerr == nil {
		rerr = json.Unmarshal([]byte(line), &r.report)
	}
	if rerr != nil {
		err = errors.Join(err, fmt.Errorf("fleet report: %w", rerr))
	}
	err = errors.Join(err, waitOrKill(r.fleet, time.Minute))
	if r.wal != nil {
		err = errors.Join(err, r.wal.Close())
	}
	return err
}

// abort tears a half-started run down.
func (r *serverRun) abort() {
	if r.srv != nil {
		_ = r.srv.Close()
	}
	if r.fleet != nil {
		_ = r.fleet.Process.Kill()
		_ = r.fleet.Wait()
	}
	if r.wal != nil {
		_ = r.wal.Close()
	}
	r.removeWAL()
}

func (r *serverRun) removeWAL() {
	if r.walPath != "" {
		_ = os.RemoveAll(filepath.Dir(r.walPath))
	}
}

// readLineTimeout reads one line, giving up after d. On timeout the
// reader goroutine stays blocked until the fleet's pipe closes, which
// waitOrKill guarantees.
func readLineTimeout(br *bufio.Reader, d time.Duration) (string, error) {
	type res struct {
		s   string
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := br.ReadString('\n')
		ch <- res{strings.TrimSpace(s), err}
	}()
	select {
	case x := <-ch:
		return x.s, x.err
	case <-time.After(d):
		return "", errors.New("timed out reading from fleet")
	}
}

// waitOrKill waits for the fleet to exit, killing it after d.
func waitOrKill(cmd *exec.Cmd, d time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("fleet exit: %w", err)
		}
		return nil
	case <-time.After(d):
		_ = cmd.Process.Kill()
		<-done
		return errors.New("fleet did not exit; killed")
	}
}
