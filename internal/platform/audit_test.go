package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"edgeauction/internal/core"
)

// encodeJSON is the oracle: the line json.Encoder.Encode writes for rec.
func encodeJSON(t testing.TB, rec *AuditRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rec); err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	return buf.Bytes()
}

// checkEncode encodes rec with e and requires encoding/json's bytes.
func checkEncode(t *testing.T, e *recordEncoder, what string, rec *AuditRecord) {
	t.Helper()
	got, err := e.encode(rec)
	if err != nil {
		t.Fatalf("%s: encode: %v", what, err)
	}
	if want := encodeJSON(t, rec); !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

var (
	edgeFloats = []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072009e-308, 1e-7, -1e-7, 9.99e-7, 1e-6, 1.5e-300, 0.1, 1,
		1e20, 123456789012345678901, 1e21, -1e21, 1.7976931348623157e308, -math.MaxFloat64,
	}
	edgeInts    = []int{0, -1, 1, 9, 10, -10, math.MinInt, math.MaxInt, math.MinInt + 1, math.MaxInt - 1}
	edgeStrings = []string{
		"", AuditKind, "0123456789abcdef", "a<b>c&d", "\u2028\u2029", "\x00\x01\x1f\x7f",
		"\xff\xfe\xc3", `quote " and \ back`, "tab\tnew\nline", "édge ☃", "~ !#$%'()*+,-./:;=?@[]^_`{|}",
	}
)

func pickFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return edgeFloats[rng.Intn(len(edgeFloats))]
	}
	return randomPrice(rng)
}

func pickInt(rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		return edgeInts[rng.Intn(len(edgeInts))]
	}
	return randomInt(rng)
}

// pickInts returns nil, an empty slice or up to four ints.
func pickInts(rng *rand.Rand) []int {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	v := make([]int, 1+rng.Intn(4))
	for i := range v {
		v[i] = pickInt(rng)
	}
	return v
}

// randomRecord fills every field, each slice and map nil, empty or
// populated, with edge-case ints, floats and strings mixed in.
func randomRecord(rng *rand.Rand) *AuditRecord {
	rec := &AuditRecord{
		Kind: edgeStrings[rng.Intn(len(edgeStrings))], T: pickInt(rng),
		UnixMillis: int64(pickInt(rng)), Demand: pickInts(rng), NeedyIDs: pickInts(rng),
		SocialCost: pickFloat(rng), Infeasible: rng.Intn(2) == 0,
		StateHash: edgeStrings[rng.Intn(len(edgeStrings))],
	}
	if n := rng.Intn(5) - 1; n >= 0 {
		rec.Bids = make([]AuditBid, n)
		for i := range rec.Bids {
			rec.Bids[i] = AuditBid{Bidder: pickInt(rng), Alt: pickInt(rng), Price: pickFloat(rng), Covers: pickInts(rng), Units: pickInt(rng)}
		}
	}
	if n := rng.Intn(4) - 1; n >= 0 {
		rec.Awards = make([]WireAward, n)
		for i := range rec.Awards {
			rec.Awards[i] = WireAward{Bidder: pickInt(rng), Alt: pickInt(rng), Payment: pickFloat(rng)}
		}
	}
	if n := rng.Intn(6) - 1; n >= 0 {
		rec.Capacity = make(map[int]int, n)
		for i := 0; i < n; i++ {
			rec.Capacity[pickInt(rng)] = pickInt(rng)
		}
	}
	if n := rng.Intn(6) - 1; n >= 0 {
		rec.Windows = make(map[int]core.BidderWindow, n)
		for i := 0; i < n; i++ {
			rec.Windows[pickInt(rng)] = core.BidderWindow{Arrive: pickInt(rng), Depart: pickInt(rng)}
		}
	}
	return rec
}

// TestRecordEncoderMatchesEncodingJSON compares the record encoder with
// json.Encoder.Encode on generated records, then on each edge value in a
// field of its own, through one encoder so its key-order cache sees a new
// map every time.
func TestRecordEncoderMatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	var e recordEncoder
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		checkEncode(t, &e, fmt.Sprintf("record %d", i), randomRecord(rng))
	}

	checkEncode(t, &e, "zero record", &AuditRecord{})
	checkEncode(t, &e, "empty slices and maps", &AuditRecord{
		Demand: []int{}, NeedyIDs: []int{}, Bids: []AuditBid{{}}, Awards: []WireAward{},
		Capacity: map[int]int{}, Windows: map[int]core.BidderWindow{},
	})
	checkEncode(t, &e, "zero-bid round", &AuditRecord{Kind: AuditKind, T: 3, UnixMillis: 3, Demand: []int{1}, Infeasible: true})
	for _, f := range edgeFloats {
		checkEncode(t, &e, fmt.Sprintf("float %g", f), &AuditRecord{
			SocialCost: f, Bids: []AuditBid{{Price: -f}}, Awards: []WireAward{{Payment: f}},
		})
	}
	for _, v := range edgeInts {
		checkEncode(t, &e, fmt.Sprintf("int %d", v), &AuditRecord{
			T: v, UnixMillis: int64(v), Demand: []int{v}, Bids: []AuditBid{{Bidder: v, Alt: v, Covers: []int{v}, Units: v}},
			Capacity: map[int]int{v: v}, Windows: map[int]core.BidderWindow{v: {Arrive: v, Depart: v}},
		})
	}
	keys := map[int]int{}
	for _, v := range edgeInts {
		keys[v] = v
	}
	checkEncode(t, &e, "edge keys", &AuditRecord{Capacity: keys})
	for _, s := range edgeStrings {
		checkEncode(t, &e, fmt.Sprintf("string %q", s), &AuditRecord{Kind: s, StateHash: s})
	}
}

// TestRecordEncoderKeyOrderCache re-encodes maps whose keys or values
// changed after the encoder cached their order: in place, so a check by
// map identity would reuse a stale order, and by length alone.
func TestRecordEncoderKeyOrderCache(t *testing.T) {
	t.Parallel()
	var e recordEncoder
	capacity := map[int]int{1: 5, 2: 6, 9: 7, 10: 8, -1: 9}
	windows := map[int]core.BidderWindow{3: {Arrive: 1, Depart: 4}, 30: {}, 4: {Depart: 2}}
	rec := &AuditRecord{Capacity: capacity, Windows: windows}
	checkEncode(t, &e, "first", rec)
	checkEncode(t, &e, "unchanged", rec)

	rec.Capacity, rec.Windows = copyIntMap(capacity), copyWindowMap(windows)
	checkEncode(t, &e, "fresh copies", rec)

	delete(rec.Capacity, 9)
	rec.Capacity[100] = 7
	delete(rec.Windows, 30)
	rec.Windows[-30] = core.BidderWindow{Arrive: 2}
	checkEncode(t, &e, "same-length key set, one key swapped", rec)

	rec.Capacity[1] = 50
	rec.Windows[3] = core.BidderWindow{Arrive: 8, Depart: 9}
	checkEncode(t, &e, "changed values", rec)

	delete(rec.Capacity, 2)
	delete(rec.Windows, 4)
	checkEncode(t, &e, "removed key", rec)

	rec.Capacity[2], rec.Capacity[11] = 1, 1
	checkEncode(t, &e, "added keys", rec)
}

// TestRecordNonFiniteFloatFails: a NaN or infinite price, payment or
// social cost fails Append and record with an error, and neither log
// grows.
func TestRecordNonFiniteFloatFails(t *testing.T) {
	t.Parallel()
	w, err := CreateWAL(filepath.Join(t.TempDir(), "nan.wal"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(walRecord(1, "")); err != nil {
		t.Fatal(err)
	}
	var audit bytes.Buffer
	a := NewAudit(&audit)
	fields := []struct {
		name string
		set  func(*AuditRecord, float64)
	}{
		{"price", func(r *AuditRecord, f float64) { r.Bids[1].Price = f }},
		{"payment", func(r *AuditRecord, f float64) { r.Awards[0].Payment = f }},
		{"social_cost", func(r *AuditRecord, f float64) { r.SocialCost = f }},
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, field := range fields {
			before, err := os.Stat(w.Path())
			if err != nil {
				t.Fatal(err)
			}
			rec := walRecord(2, "")
			field.set(rec, f)
			if err := w.Append(rec); err == nil {
				t.Errorf("Append with %s %v: no error", field.name, f)
			}
			after, err := os.Stat(w.Path())
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != before.Size() {
				t.Errorf("Append with %s %v: WAL grew from %d to %d bytes", field.name, f, before.Size(), after.Size())
			}
			if err := a.record(rec); err == nil || audit.Len() != 0 {
				t.Errorf("record with %s %v: err %v, audit holds %d bytes", field.name, f, err, audit.Len())
			}
		}
	}
	if err := w.Append(walRecord(3, "")); err != nil {
		t.Fatalf("Append after the failures: %v", err)
	}
	data, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := ReadAudit(bytes.NewReader(data)); err != nil || len(recs) != 2 {
		t.Fatalf("WAL after the failures: %d records, err %v; want 2", len(recs), err)
	}
}

// TestRecordEncoderDoesNotAllocate: once warm, the encoder writes a
// durable-10k-shaped record without allocating. An encoder that went
// through encoding/json would allocate for every record.
func TestRecordEncoderDoesNotAllocate(t *testing.T) {
	rec := durableRecord(10000)
	rec.Windows = map[int]core.BidderWindow{1: {Arrive: 1, Depart: 9}, 2: {}}
	var e recordEncoder
	checkEncode(t, &e, "durable-10k record", rec)
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.encode(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm encode allocated %v times per record, want 0", allocs)
	}
}

// TestCommittedWALFormat pins the WAL format to a log an earlier build
// wrote: the crash scenario's uninterrupted baseline (cmd/chaos -scenario
// crash). Every record must encode back to its exact line, and Recover,
// under that scenario's auction config, must replay all 60 records to
// their logged state hashes.
func TestCommittedWALFormat(t *testing.T) {
	t.Parallel()
	path := filepath.Join("testdata", "crash-baseline.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAudit(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	if len(recs) != 60 || len(lines) != 60 {
		t.Fatalf("read %d records from %d lines, want 60", len(recs), len(lines))
	}
	var e recordEncoder
	for i, rec := range recs {
		got, err := e.encode(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, lines[i]) {
			t.Fatalf("record %d:\n got %s\nwant %s", i, got, lines[i])
		}
	}

	rs, err := Recover(path, "", core.MSOAConfig{Options: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replayed != 60 || rs.NextRound != 61 || rs.Hash != recs[59].StateHash {
		t.Fatalf("recovered %d records to round %d, hash %s; want 60, 61, %s", rs.Replayed, rs.NextRound, rs.Hash, recs[59].StateHash)
	}
}
