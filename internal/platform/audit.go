package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
)

// AuditKind is the kind tag stamped on every audit/WAL record.
const AuditKind = "edgeauction-audit"

// Audit records every round the platform clears as one JSON line, so
// operators can replay disputes offline (the records embed the full
// assembled instance in the cmd/wspsolve format). Writers are serialized;
// any io.Writer works (file, pipe, network).
type Audit struct {
	mu    sync.Mutex
	w     io.Writer
	enc   recordEncoder
	flush func() error
	sink  func(*AuditRecord) error
	clock func(t int) int64
}

// NewAudit wraps a writer as an audit sink. A writer exposing
// Flush() error (e.g. *bufio.Writer) is flushed after every record, so a
// crash right after a round closes cannot strand the round's line in a
// userspace buffer.
func NewAudit(w io.Writer) *Audit {
	a := &Audit{w: w}
	if f, ok := w.(interface{ Flush() error }); ok {
		a.flush = f.Flush
	}
	return a
}

// NewAuditSink delivers each completed round record to fn instead of a
// writer. fn runs synchronously on the RunRound goroutine after the
// round's trace events (including the platform-scope RoundClose) have
// been emitted, so an online auditor pairing an obs.RoundSink with this
// sink sees round t's full trace batch before record t. An fn error
// surfaces from RunRound exactly like an unwritable audit log.
func NewAuditSink(fn func(*AuditRecord) error) *Audit {
	return &Audit{sink: fn}
}

// WithClock injects the timestamp source used for records whose
// UnixMillis is still zero: clock(t) is called with the round number.
// Without an injected clock, records are stamped with wall-clock
// time.Now(), which makes identically-seeded runs byte-different —
// seeded/deterministic harnesses should install LogicalClock. Returns the
// audit for chaining.
func (a *Audit) WithClock(clock func(t int) int64) *Audit {
	a.clock = clock
	return a
}

// AuditRecord is one cleared (or failed) round. When written by a WAL
// (see WAL.Append), the record additionally carries the capacity/window
// maps the round was filtered under and the post-round state hash, which
// is what makes replaying a WAL suffix exact.
type AuditRecord struct {
	// Kind is always AuditKind.
	Kind string `json:"kind"`
	// T is the round number.
	T int `json:"t"`
	// UnixMillis is the time the round cleared: wall-clock by default, the
	// round number itself under LogicalClock.
	UnixMillis int64 `json:"unix_ms"`
	// Demand is the announced residual demand.
	Demand []int `json:"demand"`
	// NeedyIDs names the needy microservices, if provided.
	NeedyIDs []int `json:"needy_ids,omitempty"`
	// Bids holds every collected bid, by bidder.
	Bids []AuditBid `json:"bids"`
	// Awards holds winners and payments.
	Awards []WireAward `json:"awards,omitempty"`
	// SocialCost is the round's cleared cost.
	SocialCost float64 `json:"social_cost"`
	// Infeasible marks rounds whose demand could not be covered.
	Infeasible bool `json:"infeasible,omitempty"`
	// Capacity is the per-bidder Θ map in force when the round ran. Only
	// WAL records carry it; replay swaps it in before re-running the round
	// so registration-learned capacities filter identically.
	Capacity map[int]int `json:"capacity,omitempty"`
	// Windows is the per-bidder participation-window map in force when the
	// round ran. Only WAL records carry it.
	Windows map[int]core.BidderWindow `json:"windows,omitempty"`
	// StateHash is core.MSOAState.Hash() AFTER this round was applied.
	// Only WAL records carry it; recovery asserts the replayed state
	// reaches the same hash.
	StateHash string `json:"state_hash,omitempty"`
}

// Instance rebuilds the core instance the record claims the round ran on
// (demand plus (bidder, alt)-sorted bids, prices doubling as true costs).
// Both the chaos auditor's shadow replay and WAL recovery feed this to an
// MSOA.
func (rec *AuditRecord) Instance() *core.Instance {
	ins := &core.Instance{Demand: rec.Demand}
	for _, b := range rec.Bids {
		ins.Bids = append(ins.Bids, core.Bid{
			Bidder: b.Bidder, Alt: b.Alt, Price: b.Price,
			TrueCost: b.Price, Covers: b.Covers, Units: b.Units,
		})
	}
	return ins
}

// AuditBid is one collected bid in an audit record.
type AuditBid struct {
	Bidder int     `json:"bidder"`
	Alt    int     `json:"alt"`
	Price  float64 `json:"price"`
	Covers []int   `json:"covers"`
	Units  int     `json:"units"`
}

// record appends one line; errors are returned so the server can surface
// them (an unwritable audit log is an operational fault, not a silent
// degradation).
func (a *Audit) record(rec *AuditRecord) error {
	rec.Kind = AuditKind
	if rec.UnixMillis == 0 {
		if a.clock != nil {
			rec.UnixMillis = a.clock(rec.T)
		} else {
			rec.UnixMillis = time.Now().UnixMilli()
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.w != nil {
		line, err := a.enc.encode(rec)
		if err == nil {
			_, err = a.w.Write(line)
		}
		if err != nil {
			return fmt.Errorf("platform: write audit record: %w", err)
		}
		if a.flush != nil {
			if err := a.flush(); err != nil {
				return fmt.Errorf("platform: flush audit log: %w", err)
			}
		}
	}
	if a.sink != nil {
		if err := a.sink(rec); err != nil {
			return fmt.Errorf("platform: audit sink: %w", err)
		}
	}
	return nil
}

// ReadAudit parses an audit (or WAL) stream back into records.
//
// A malformed FINAL record — the torn tail a crash leaves behind — does
// not discard the log: every complete preceding record is returned
// together with an error wrapping obs.ErrTruncated, so recovery and
// operators can use crash-cut logs. A malformed record with complete
// records after it is corruption, not a crash cut, and returns the
// readable prefix with a non-truncation error; a complete record with the
// wrong kind is ErrProtocol wherever it appears.
func ReadAudit(r io.Reader) ([]*AuditRecord, error) {
	lines, lastLine, err := obs.ReadJSONLLines(r)
	if err != nil {
		return nil, fmt.Errorf("platform: read audit stream: %w", err)
	}
	var out []*AuditRecord
	for i, line := range lines {
		var rec AuditRecord
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			if i == lastLine {
				return out, fmt.Errorf("platform: audit record %d: %w", len(out), obs.ErrTruncated)
			}
			return out, fmt.Errorf("platform: parse audit record %d: %w", len(out), uerr)
		}
		if rec.Kind != AuditKind {
			return out, fmt.Errorf("%w: record %d has kind %q", ErrProtocol, len(out), rec.Kind)
		}
		out = append(out, &rec)
	}
	return out, nil
}

// recordEncoder is the one writer of the WAL and audit format. It writes
// an AuditRecord line byte for byte as json.NewEncoder(w).Encode does: the
// same field order and omitempty, null for a nil slice, HTML-escaped
// strings, encoding/json's float format, and map keys in its order, that
// of their decimal text. Readers keep encoding/json, and tests compare
// against it. The sorted key order of each map is kept between records
// and checked against the map on every call, so a map with the same keys
// (the same map or a copy) reuses it and any other map is sorted afresh.
// Not safe for concurrent use.
type recordEncoder struct {
	buf      []byte
	err      error
	capOrder []int
	winOrder []int
}

// encode returns rec's line, newline included, in a buffer the next call
// reuses. As with encoding/json, a NaN or infinite float fails the record.
func (e *recordEncoder) encode(rec *AuditRecord) ([]byte, error) {
	e.buf, e.err = e.buf[:0], nil
	e.raw(`{"kind":`)
	e.str(rec.Kind)
	e.raw(`,"t":`)
	e.int(rec.T)
	e.raw(`,"unix_ms":`)
	e.buf = strconv.AppendInt(e.buf, rec.UnixMillis, 10)
	e.raw(`,"demand":`)
	e.ints(rec.Demand)
	if len(rec.NeedyIDs) > 0 {
		e.raw(`,"needy_ids":`)
		e.ints(rec.NeedyIDs)
	}
	e.raw(`,"bids":`)
	if rec.Bids == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i := range rec.Bids {
			b := &rec.Bids[i]
			if i > 0 {
				e.raw(",")
			}
			e.raw(`{"bidder":`)
			e.int(b.Bidder)
			e.raw(`,"alt":`)
			e.int(b.Alt)
			e.raw(`,"price":`)
			e.float(b.Price)
			e.raw(`,"covers":`)
			e.ints(b.Covers)
			e.raw(`,"units":`)
			e.int(b.Units)
			e.raw("}")
		}
		e.raw("]")
	}
	if len(rec.Awards) > 0 {
		e.raw(`,"awards":[`)
		for i := range rec.Awards {
			a := &rec.Awards[i]
			if i > 0 {
				e.raw(",")
			}
			e.raw(`{"bidder":`)
			e.int(a.Bidder)
			e.raw(`,"alt":`)
			e.int(a.Alt)
			e.raw(`,"payment":`)
			e.float(a.Payment)
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw(`,"social_cost":`)
	e.float(rec.SocialCost)
	if rec.Infeasible {
		e.raw(`,"infeasible":true`)
	}
	if len(rec.Capacity) > 0 {
		e.raw(`,"capacity":`)
		appendMap(e, &e.capOrder, rec.Capacity, (*recordEncoder).int)
	}
	if len(rec.Windows) > 0 {
		e.raw(`,"windows":`)
		appendMap(e, &e.winOrder, rec.Windows, (*recordEncoder).window)
	}
	if rec.StateHash != "" {
		e.raw(`,"state_hash":`)
		e.str(rec.StateHash)
	}
	e.raw("}\n")
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

func (e *recordEncoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *recordEncoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

// ints writes a []int, nil as null.
func (e *recordEncoder) ints(v []int) {
	if v == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, x := range v {
		if i > 0 {
			e.raw(",")
		}
		e.int(x)
	}
	e.raw("]")
}

// float writes f as encoding/json does: the shortest decimal that reads
// back as f, in 'e' form below 1e-6 and from 1e21, with a one-digit
// negative exponent unpadded (1e-7, not 1e-07).
func (e *recordEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}

// str writes s quoted. Printable ASCII other than the characters
// encoding/json escapes is copied; any other string is left to
// encoding/json itself.
func (e *recordEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, q...)
			return
		}
	}
	e.raw(`"`)
	e.raw(s)
	e.raw(`"`)
}

func (e *recordEncoder) window(w core.BidderWindow) {
	e.raw(`{"Arrive":`)
	e.int(w.Arrive)
	e.raw(`,"Depart":`)
	e.int(w.Depart)
	e.raw("}")
}

// appendMap writes m with its keys in encoding/json's order. *order holds
// that order from the last call and is sorted afresh unless it lists
// exactly m's keys.
func appendMap[V any](e *recordEncoder, order *[]int, m map[int]V, value func(*recordEncoder, V)) {
	if !sameKeys(*order, m) {
		keys := (*order)[:0]
		for k := range m {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, cmpKeyText)
		*order = keys
	}
	e.raw("{")
	for i, k := range *order {
		if i > 0 {
			e.raw(",")
		}
		e.raw(`"`)
		e.int(k)
		e.raw(`":`)
		value(e, m[k])
	}
	e.raw("}")
}

// sameKeys reports whether keys, which are distinct, are exactly m's keys.
func sameKeys[V any](keys []int, m map[int]V) bool {
	if len(keys) != len(m) {
		return false
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return false
		}
	}
	return true
}

// cmpKeyText orders ints by their decimal text, as encoding/json sorts
// int map keys: "-1" before "0", "10" before "9".
func cmpKeyText(a, b int) int {
	var x, y [20]byte
	return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
}
