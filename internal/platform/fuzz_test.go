package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
)

// FuzzReadAudit hardens the audit-log parser against corrupted or
// adversarial files: arbitrary bytes must parse cleanly or fail cleanly.
func FuzzReadAudit(f *testing.F) {
	var buf bytes.Buffer
	a := NewAudit(&buf)
	if err := a.record(&AuditRecord{
		T: 1, Demand: []int{2},
		Bids:   []AuditBid{{Bidder: 1, Price: 5, Covers: []int{0}, Units: 1}},
		Awards: []WireAward{{Bidder: 1, Payment: 7}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("{\n"))
	f.Add([]byte(`{"kind":"edgeauction-audit","t":-1}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := ReadAudit(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, rec := range records {
			if rec == nil {
				t.Fatalf("record %d is nil without error", i)
			}
			if rec.Kind != "edgeauction-audit" {
				t.Fatalf("record %d has wrong kind %q", i, rec.Kind)
			}
		}
	})
}

// FuzzRecvInto hardens the wire decoder the server's ingest loop runs:
// arbitrary lines go through recvInto over net.Pipe into one reused
// envelope, between two dense bid frames. Decoding must never panic,
// accept exactly the lines a fresh envelope accepts, and give every
// envelope a type; after resetForReuse a bid frame must decode to exactly
// its own fields — nothing may leak from the line before, whether that
// line was a dense bid frame or the fuzzed one. (Other message types
// decode next to the kept, empty bid storage.)
func FuzzRecvInto(f *testing.F) {
	f.Add([]byte(`{"type":"bid","bid":{"t":3,"bids":[{"alt":1,"price":12.5,"covers":[0,2],"units":2}]}}`))
	f.Add([]byte(`{"type":"bid","bid":{"t":4,"multi":[{"agent":7,"bids":[{"price":9,"covers":[1],"units":1}]},{"agent":8,"bids":[]}]}}`))
	f.Add([]byte(`{"type":"bid","bid":{"t":5,"bids":[{"covers":[null]}]}}`))
	f.Add([]byte(`{"type":"hello","hello":{"agent_id":3,"capacity":9,"count":2}}`))
	f.Add([]byte(`{"type":""}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	dense := []byte(`{"type":"bid","bid":{"t":9,"bids":[` +
		`{"alt":4,"price":31,"covers":[5,6,7],"units":3},{"alt":5,"price":32,"covers":[8],"units":4}],` +
		`"multi":[{"agent":41,"bids":[{"alt":2,"price":33,"covers":[9,9],"units":5}]},` +
		`{"agent":42,"bids":[{"alt":3,"price":34,"covers":[1],"units":6},{"alt":6,"price":35,"covers":[2,3],"units":7}]}]}}`)

	f.Fuzz(func(t *testing.T, line []byte) {
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		server, client := net.Pipe()
		defer server.Close()
		go func() {
			defer client.Close()
			for _, l := range [][]byte{dense, line, dense} {
				if _, err := client.Write(append(append([]byte(nil), l...), '\n')); err != nil {
					return
				}
			}
		}()
		c := newConn(server)
		var env Envelope
		var buf []byte
		for i, l := range [][]byte{dense, line, dense} {
			env.resetForReuse()
			err := c.recvInto(&env, &buf, 0)
			var fresh Envelope
			ferr := json.Unmarshal(l, &fresh)
			if ferr == nil && fresh.Type == "" {
				ferr = errors.New("missing type")
			}
			if (err == nil) != (ferr == nil) {
				t.Fatalf("line %d %q: reused decode err %v, fresh decode err %v", i, l, err, ferr)
			}
			if err != nil {
				continue
			}
			if env.Type == "" {
				t.Fatalf("line %d %q decoded without a type", i, l)
			}
			if fresh.Type != TypeBid || fresh.Bid == nil {
				fresh.Bid = env.Bid
			}
			if !sameEnvelope(&env, &fresh) {
				t.Fatalf("line %d %q: reused decode %+v, fresh decode %+v", i, l, env.Bid, fresh.Bid)
			}
		}
	})
}

// sameEnvelope compares two decoded envelopes. The bid is compared in
// its %+v form, which prints a nil and an empty slice alike (a reused bid
// keeps its slice storage) and floats exactly.
func sameEnvelope(a, b *Envelope) bool {
	x, y := *a, *b
	x.Bid, y.Bid = nil, nil
	return reflect.DeepEqual(x, y) && fmt.Sprintf("%+v", a.Bid) == fmt.Sprintf("%+v", b.Bid)
}
