package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edgeauction/internal/core"
)

// FuzzReadAudit hardens the audit-log parser against corrupted or
// adversarial files: arbitrary bytes must parse cleanly or fail cleanly.
// Every record it parses must encode through the record encoder to
// json.Marshal's bytes plus the newline.
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
	f.Add([]byte(`{"kind":"edgeauction-audit","t":2,"unix_ms":2,"demand":[1,0],"needy_ids":[4,9],"bids":[],` +
		`"social_cost":1e-7,"capacity":{"10":1,"9":0,"-1":2},"windows":{"3":{"Arrive":1,"Depart":2}},"state_hash":"a\u003cb"}` + "\n"))
	f.Add([]byte(""))
	f.Add([]byte("{\n"))
	f.Add([]byte(`{"kind":"edgeauction-audit","t":-1}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// On an error the records are the readable prefix, all complete.
		records, _ := ReadAudit(bytes.NewReader(data))
		var e recordEncoder
		for i, rec := range records {
			if rec == nil {
				t.Fatalf("record %d is nil", i)
			}
			if rec.Kind != "edgeauction-audit" {
				t.Fatalf("record %d has wrong kind %q", i, rec.Kind)
			}
			want, merr := json.Marshal(rec)
			got, eerr := e.encode(rec)
			if merr != nil || eerr != nil || !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("record %d: encoded %q (err %v), json.Marshal %q (err %v)", i, got, eerr, want, merr)
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
// decode next to the kept, empty bid storage.) Bid lines take the
// hand-written scanBid and everything it declines takes encoding/json, so
// the seeds hit each of the scanner's branches and each way out of its
// subset.
func FuzzRecvInto(f *testing.F) {
	for _, line := range []string{
		`{"type":"bid","bid":{"t":3,"bids":[{"alt":1,"price":12.5,"covers":[0,2],"units":2}]}}`,
		`{"type":"bid","bid":{"t":4,"multi":[{"agent":7,"bids":[{"price":9,"covers":[1],"units":1}]},{"agent":8,"bids":[]}]}}`,
		`{"type":"hello","hello":{"agent_id":3,"capacity":9,"count":2}}`,
		`{"type":""}`,
		`{`,
		``,
		// Shapes the scanner takes.
		`{"bid":{"bids":[{"units":2,"covers":[3],"price":4.25,"alt":1}],"t":6},"type":"bid"}`,
		"{ \"type\" :\t\"bid\" , \"bid\" : { \"t\" : 7 , \"multi\" : [ { \"bids\" : [ ] , \"agent\" : 2 } ] } }\r ",
		`{"type":"bid","bid":{"t":8,"bids":[]}}`,
		`{"type":"bid","bid":{"t":-0,"bids":[{"alt":-0,"price":-0,"covers":[-0],"units":-12}]}}`,
		`{"type":"bid","bid":{"t":9,"bids":[{"price":0},{"price":1E-7},{"price":1e+21},{"price":-2.5e-3}]}}`,
		`{"type":"bid","bid":{"t":999999999999999999,"bids":[{"alt":-999999999999999999}]}}`,
		`{"type":"bid","bid":{}}`,
		// Shapes it leaves to encoding/json.
		`{"type":"bid","bid":{"T":3,"bids":[]}}`,
		`{"type":"bid","bid":{"t":3,"Bids":[{"alt":1}]}}`,
		`{"type":"bid","bid":{"t":3,"bids":[{"unitſ":2}]}}`,
		`{"\u0074ype":"bid","bid":{"t":3}}`,
		`{"type":"b\u0069d","bid":{"t":3}}`,
		`{"type":"bid","bid":{"t":3,"t":4}}`,
		`{"type":"bid","bid":{"t":3,"bids":[{"alt":1,"covers":null}]}}`,
		`{"type":"bid","bid":{"t":5,"bids":[{"covers":[null]}]}}`,
		`{"type":"bid","bid":null}`,
		`{"type":"bid","bid":{"t":null}}`,
		`{"type":"bid","bid":{"t":1.0}}`,
		`{"type":"bid","bid":{"t":1e2}}`,
		`{"type":"bid","bid":{"t":01}}`,
		`{"type":"bid","bid":{"t":1000000000000000000}}`,
		`{"type":"bid","bid":{"t":3,"bids":[{"price":1e400}]}}`,
		`{"type":"bid","bid":{"t":3,"bids":[{"price":0x1p3}]}}`,
		`{"bid":{"t":3},"type":"hello"}`,
		`{"bid":{"t":3}}`,
		`{"type":"bid","bid":{"t":3}}}`,
		`{"type":"bid","bid":{"t":3,"bids":[{"alt":1,}]}}`,
		`{"type":"bid","bid":{"t":3},"error":"x"}`,
	} {
		f.Add([]byte(line))
	}

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

// FuzzLoadLatestSnapshot writes arbitrary bytes as the newest snapshot
// file beside an older valid one. The loader must never panic, and never
// fail on a file's content: it returns the fuzzed snapshot only when it
// decodes with the snapshot kind, a state and a self-hash that holds, and
// the older one otherwise.
func FuzzLoadLatestSnapshot(f *testing.F) {
	m := core.NewMSOA(core.MSOAConfig{Capacity: map[int]int{1: 4}, Options: core.Options{Parallelism: 1}})
	ins := &core.Instance{Demand: []int{1}, Bids: []core.Bid{
		{Bidder: 1, Alt: 1, Price: 10, TrueCost: 10, Covers: []int{0}, Units: 1},
		{Bidder: 2, Alt: 1, Price: 12, TrueCost: 12, Covers: []int{0}, Units: 1},
	}}
	snapshotBytes := func(round int) []byte {
		if res := m.RunRound(core.Round{T: round, Instance: ins}); res.Err != nil {
			f.Fatal(res.Err)
		}
		path, err := WriteSnapshot(f.TempDir(), round, m.Snapshot())
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	older, newer := snapshotBytes(1), snapshotBytes(2)
	var old SnapshotFile
	if err := json.Unmarshal(older, &old); err != nil {
		f.Fatal(err)
	}

	f.Add(newer)
	f.Add(newer[:len(newer)/2])
	f.Add(bytes.Replace(newer, []byte(SnapshotKind), []byte("edgeauction-audit"), 1))
	f.Add([]byte(`{"kind":"edgeauction-snapshot","round":2,"state":null,"hash":""}`))

	// Inputs run one at a time in each process, so they share the files.
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot-00000001.json"), older, 0o644); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, "snapshot-00000002.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadLatestSnapshot(dir)
		if err != nil {
			t.Fatalf("LoadLatestSnapshot: %v", err)
		}
		want := &old
		var fuzzed SnapshotFile
		if json.Unmarshal(data, &fuzzed) == nil && fuzzed.Kind == SnapshotKind && fuzzed.State != nil && fuzzed.Hash == fuzzed.State.Hash() {
			want = &fuzzed
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded %+v, want %+v", got, want)
		}
	})
}
