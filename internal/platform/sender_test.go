package platform_test

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"edgeauction/internal/loadgen"
	"edgeauction/internal/platform"
)

// TestSendersTakeBidFastPath captures the bid line each in-repo sender
// writes — Agent.Submit, and a loadgen session's pre-encoded batch — off
// a scripted platform, and checks that the bid fast path takes it with
// no fallback and decodes it as encoding/json does. (perfbench's frames
// are covered by TestScanBidTakesMarshalledBids.)
func TestSendersTakeBidFastPath(t *testing.T) {
	bids := []platform.WireBid{
		{Alt: 1, Price: 12.75, Covers: []int{0, 3}, Units: 2},
		{Alt: 2, Price: 4e-7, Covers: []int{1}, Units: 1},
	}
	senders := []struct {
		name string
		dial func(addr string) (io.Closer, error)
	}{
		{"agent-submit", func(addr string) (io.Closer, error) {
			a, err := platform.Dial(addr, platform.AgentConfig{ID: 3})
			if err != nil {
				return nil, err
			}
			return a, a.Submit(7, bids)
		}},
		{"loadgen-batch", func(addr string) (io.Closer, error) {
			return loadgen.Dial(addr, loadgen.Config{Agents: 300, AgentsPerConn: 300})
		}},
	}
	for _, s := range senders {
		t.Run(s.name, func(t *testing.T) {
			line, err := captureBidLine(s.dial)
			if err != nil {
				t.Fatal(err)
			}
			if err := platform.CheckFastPath(line); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// captureBidLine plays the platform for one connection: it welcomes the
// sender's hello, announces round 7 over four needy services, and returns
// the next line the sender writes.
func captureBidLine(dial func(addr string) (io.Closer, error)) ([]byte, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	type captured struct {
		line []byte
		err  error
	}
	got := make(chan captured, 1)
	go func() {
		line, err := serveOneBid(ln)
		got <- captured{line, err}
	}()
	sender, err := dial(ln.Addr().String())
	if err != nil {
		_ = ln.Close()
		<-got
		return nil, err
	}
	c := <-got
	_ = ln.Close()
	return c.line, errors.Join(c.err, sender.Close())
}

func serveOneBid(ln net.Listener) ([]byte, error) {
	c, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return nil, err
	}
	r := bufio.NewReader(c)
	if _, err := r.ReadBytes('\n'); err != nil {
		return nil, err
	}
	if _, err := io.WriteString(c, `{"type":"welcome","welcome":{"agent_id":1,"round":7}}`+"\n"+
		`{"type":"announce","announce":{"t":7,"demand":[2,1,2,1],"deadline_ms":1000}}`+"\n"); err != nil {
		return nil, err
	}
	return r.ReadBytes('\n')
}
