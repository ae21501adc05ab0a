package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"edgeauction/internal/platform"
)

// fleetProcs is the fleet process's pinned GOMAXPROCS: it only splices a
// round tag into pre-encoded bytes, so one processor is plenty and the
// rest of the host stays with the SUT.
const fleetProcs = 1

// fleetReport is the fleet's one-line JSON summary, written to stdout when
// the SUT closes the sessions.
type fleetReport struct {
	// Samples holds one [round, nanos] bid-to-award pair per session and
	// answered round.
	Samples    [][2]int64 `json:"samples"`
	BidsSent   int64      `json:"bids_sent"`
	Withheld   int64      `json:"withheld"`
	Rejections int64      `json:"rejections"`
	Errors     int64      `json:"errors"`
	// BusyFrac is the fleet's CPU time over its wall time from
	// registration to shutdown, as a share of its one processor.
	BusyFrac   float64 `json:"busy_frac"`
	GoMaxProcs int     `json:"gomaxprocs"`
}

var (
	announcePrefix = []byte(`{"type":"announce","announce":{"t":`)
	resultPrefix   = []byte(`{"type":"result","result":{"t":`)
	rejectPrefix   = []byte(`{"type":"reject"`)
	shutdownPrefix = []byte(`{"type":"shutdown"`)
	errorPrefix    = []byte(`{"type":"error"`)
)

// runFleet is the fleet process: it registers the workload's agents over
// at most sessionCount() multiplexed sessions, prints "ready", then
// answers every announce with the session's pre-encoded batch until the
// platform shuts the sessions down, and prints its report.
func runFleet(args []string) error {
	fl := flag.NewFlagSet("fleet", flag.ContinueOnError)
	addr := fl.String("addr", "", "platform address")
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "workload seed")
	withhold := fl.Int("withhold", 0, "round in which the first session sends no batch (0: never)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(fleetProcs)
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	tr, err := genTraffic(w, *seed, sessionCount())
	if err != nil {
		return err
	}
	conns := make([]*fleetConn, len(tr.sessions))
	for i := range tr.sessions {
		c, err := dialSession(*addr, &tr.sessions[i], w.alts)
		if err != nil {
			return err
		}
		defer c.raw.Close()
		conns[i] = c
	}
	if _, err := fmt.Fprintln(os.Stdout, "ready"); err != nil {
		return err
	}
	start := time.Now()
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(c *fleetConn, withheld bool) {
			defer wg.Done()
			c.loop(*withhold, withheld)
		}(c, i == 0)
	}
	wg.Wait()
	rep := fleetReport{GoMaxProcs: runtime.GOMAXPROCS(0)}
	rep.BusyFrac = (cpuTime() - cpu0).Seconds() / time.Since(start).Seconds()
	for _, c := range conns {
		rep.Samples = append(rep.Samples, c.samples...)
		rep.BidsSent += c.bidsSent
		rep.Withheld += c.withheld
		rep.Rejections += c.rejections
		rep.Errors += c.errors
	}
	return json.NewEncoder(os.Stdout).Encode(&rep)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fleetConn is one registered session.
type fleetConn struct {
	raw  net.Conn
	r    *bufio.Reader
	sess *fleetSession
	bids int64 // bids per batch
	line []byte
	out  []byte

	samples                                [][2]int64
	bidsSent, withheld, rejections, errors int64
}

func dialSession(addr string, sess *fleetSession, alts int) (*fleetConn, error) {
	raw, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("fleet: dial %s: %w", addr, err)
	}
	c := &fleetConn{raw: raw, r: bufio.NewReaderSize(raw, 64<<10), sess: sess, bids: int64(sess.count * alts)}
	hello, err := json.Marshal(&platform.Envelope{Type: platform.TypeHello, Hello: &platform.HelloMsg{
		AgentID: sess.first, Capacity: sess.capacity, Count: sess.count,
	}})
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("fleet: encode hello: %w", err)
	}
	if _, err := raw.Write(append(hello, '\n')); err != nil {
		raw.Close()
		return nil, fmt.Errorf("fleet: send hello: %w", err)
	}
	if err := raw.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		raw.Close()
		return nil, err
	}
	line, err := c.readLine()
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("fleet: session %d registration: %w", sess.first, err)
	}
	var env platform.Envelope
	if err := json.Unmarshal(line, &env); err != nil || env.Type != platform.TypeWelcome {
		raw.Close()
		return nil, fmt.Errorf("fleet: session %d: expected welcome, got %q", sess.first, line)
	}
	if err := raw.SetReadDeadline(time.Time{}); err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

// readLine returns the next newline-terminated line in a buffer reused
// across calls.
func (c *fleetConn) readLine() ([]byte, error) {
	c.line = c.line[:0]
	for {
		frag, err := c.r.ReadSlice('\n')
		c.line = append(c.line, frag...)
		if err == nil {
			return c.line, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
	}
}

// roundTag parses the round number that follows prefix in line.
func roundTag(line, prefix []byte) (int, bool) {
	rest := line[len(prefix):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	t, err := strconv.Atoi(string(rest[:end]))
	return t, err == nil
}

// loop answers announces until the platform shuts the session down. It
// times each batch from its write returning to the round's result line
// being read.
func (c *fleetConn) loop(withholdRound int, withholder bool) {
	pending := -1
	var wrote time.Time
	for {
		line, err := c.readLine()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.errors++
			}
			return
		}
		switch {
		case bytes.HasPrefix(line, announcePrefix):
			t, ok := roundTag(line, announcePrefix)
			if !ok {
				c.errors++
				return
			}
			if withholder && t == withholdRound {
				c.withheld++
				continue
			}
			c.out = c.sess.frame(c.out, t)
			if _, err := c.raw.Write(c.out); err != nil {
				c.errors++
				return
			}
			wrote = time.Now()
			pending = t
			c.bidsSent += c.bids
		case bytes.HasPrefix(line, resultPrefix):
			t, ok := roundTag(line, resultPrefix)
			if ok && t == pending {
				c.samples = append(c.samples, [2]int64{int64(t), time.Since(wrote).Nanoseconds()})
				pending = -1
			}
		case bytes.HasPrefix(line, rejectPrefix):
			c.rejections++
		case bytes.HasPrefix(line, shutdownPrefix):
			return
		case bytes.HasPrefix(line, errorPrefix):
			c.errors++
			return
		}
	}
}
