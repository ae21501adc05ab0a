package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"edgeauction/internal/core"
	"edgeauction/internal/obs"
	"edgeauction/internal/platform"
)

// Layer names, shared by spans, the self-time table and the per-layer
// metric names.
const (
	layerRound        = "round"
	layerGather       = "gather"
	layerDecode       = "decode"
	layerIngestAdd    = "ingest_add"
	layerIngestBuild  = "ingest_build"
	layerValidate     = "validate"
	layerSettle       = "settle"
	layerMSOA         = "msoa"
	layerStateHash    = "state_hash"
	layerWALAppend    = "wal_append"
	layerResultEncode = "result_encode"
)

// layerParent is the span tree of one serial round. round, gather and
// settle are timed in the SUT (the round loop and the platform's
// pipeline_stage events); the rest are replayed.
var layerParent = map[string]string{
	layerGather: layerRound, layerValidate: layerRound, layerSettle: layerRound,
	layerDecode: layerGather, layerIngestAdd: layerGather, layerIngestBuild: layerGather,
	layerMSOA: layerSettle, layerStateHash: layerSettle, layerWALAppend: layerSettle, layerResultEncode: layerSettle,
}

var layerOrder = []string{
	layerRound, layerGather, layerDecode, layerIngestAdd, layerIngestBuild, layerValidate,
	layerSettle, layerMSOA, layerStateHash, layerWALAppend, layerResultEncode,
}

// replayedLayers are the layers whose allocations the replay measures.
var replayedLayers = []string{
	layerDecode, layerIngestAdd, layerIngestBuild, layerValidate,
	layerMSOA, layerStateHash, layerWALAppend, layerResultEncode,
}

// span is one timed call at a layer boundary. Spans of one round share
// its round id.
type span struct {
	Round      int    `json:"round"`
	Layer      string `json:"layer"`
	Parent     string `json:"parent,omitempty"`
	Source     string `json:"source"`
	StartNs    int64  `json:"start_ns"`
	DurNs      int64  `json:"dur_ns"`
	AllocBytes int64  `json:"alloc_bytes,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(round int, layer, source string, start time.Time, dur time.Duration, alloc int64) {
	l.spans = append(l.spans, span{
		Round: round, Layer: layer, Parent: layerParent[layer], Source: source,
		StartNs: start.Sub(l.t0).Nanoseconds(), DurNs: dur.Nanoseconds(), AllocBytes: alloc,
	})
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// roundCounts are the kernel's per-round event counts.
type roundCounts struct {
	picks, replays, hits, pivotal, psi int
}

// rttBucket is the bid round-trip histogram resolution.
const rttBucket = 10 * time.Microsecond

// layerTracer is the in-memory obs.Tracer of the traced run. It turns the
// platform's pipeline_stage events into gather/settle spans and counts the
// kernel's greedy_pick, payment_replay and psi_update events and the
// bid_received round trips, for timed rounds only.
type layerTracer struct {
	mu     sync.Mutex
	log    *spanLog
	from   int // first timed round; 0 until timing starts
	cur    int // the round in flight (the serial engine runs one)
	counts map[int]*roundCounts
	rtt    []int64
}

func newLayerTracer(log *spanLog) *layerTracer {
	return &layerTracer{log: log, counts: make(map[int]*roundCounts)}
}

// startAt counts events from round t on.
func (lt *layerTracer) startAt(t int) {
	lt.mu.Lock()
	lt.from = t
	lt.mu.Unlock()
}

// Emit implements obs.Tracer.
func (lt *layerTracer) Emit(e obs.Event) {
	now := time.Now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if ev, ok := e.(obs.RoundOpen); ok && ev.Scope == obs.ScopePlatform {
		lt.cur = ev.T
	}
	if lt.from == 0 || lt.cur < lt.from {
		return
	}
	c := lt.counts[lt.cur]
	if c == nil {
		c = &roundCounts{}
		lt.counts[lt.cur] = c
	}
	switch ev := e.(type) {
	case obs.StageLatency:
		dur := time.Duration(ev.DurationMicros) * time.Microsecond
		lt.log.add(ev.T, ev.Stage, "sut", now.Add(-dur), dur, 0)
	case obs.GreedyPick:
		c.picks++
	case obs.PaymentReplay:
		c.replays++
		if ev.CheckpointHit {
			c.hits++
		}
		if ev.Pivotal {
			c.pivotal++
		}
	case obs.PsiUpdate:
		c.psi++
	case obs.BidReceived:
		b := int(time.Duration(ev.RTTMicros) * time.Microsecond / rttBucket)
		for len(lt.rtt) <= b {
			lt.rtt = append(lt.rtt, 0)
		}
		lt.rtt[b]++
	}
}

// rttP50 is the median bid round trip in ms (bucket midpoint).
func (lt *layerTracer) rttP50() float64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var n int64
	for _, c := range lt.rtt {
		n += c
	}
	var seen int64
	for b, c := range lt.rtt {
		seen += c
		if 2*seen >= n && n > 0 {
			return (float64(b) + 0.5) * float64(rttBucket) / float64(time.Millisecond)
		}
	}
	return 0
}

// replayer re-runs each timed round's exact frames and instance through
// the layers' public functions, one span per call.
type replayer struct {
	tr     *traffic
	demand []int
	log    *spanLog
	envs   []platform.Envelope
	buf    *core.IngestBuffer
	frame  []byte
	sample []metrics.Sample

	wal     *platform.WAL
	walPath string

	rounds, bids, excluded          int64
	decodeBytes, walBytes, resBytes int64
}

func newReplayer(tr *traffic, w workload, log *spanLog, dir string) (*replayer, error) {
	rp := &replayer{
		tr: tr, demand: w.demand, log: log,
		envs:   make([]platform.Envelope, len(tr.sessions)),
		buf:    core.NewIngestBuffer(8),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
	if w.wal {
		rp.walPath = dir + "/replay-wal.jsonl"
		var err error
		if rp.wal, err = platform.CreateWAL(rp.walPath, false); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replayer) close() error {
	if rp.wal == nil {
		return nil
	}
	err := rp.wal.Close()
	if rerr := os.Remove(rp.walPath); err == nil {
		err = rerr
	}
	return err
}

func (rp *replayer) allocs() int64 {
	metrics.Read(rp.sample)
	return int64(rp.sample[0].Value.Uint64())
}

// timed runs fn, and when on is set records it as a replay span of round
// t with the heap bytes it allocated. It is safe on a nil replayer.
func (rp *replayer) timed(on bool, t int, layer string, fn func()) {
	if rp == nil || !on {
		fn()
		return
	}
	a0 := rp.allocs()
	start := time.Now()
	fn()
	dur := time.Since(start)
	rp.log.add(t, layer, "replay", start, dur, rp.allocs()-a0)
}

// gather decodes round t's frames into platform envelopes (reused per
// session, as the server's read loops reuse theirs), appends every bid to
// an IngestBuffer, builds and validates the canonical instance.
func (rp *replayer) gather(t int) (*core.Instance, error) {
	rp.rounds++
	rp.buf.Reset(rp.demand)
	for s := range rp.tr.sessions {
		rp.frame = rp.tr.sessions[s].frame(rp.frame, t)
		rp.decodeBytes += int64(len(rp.frame))
		env := &rp.envs[s]
		bid := env.Bid
		*env = platform.Envelope{}
		if bid != nil {
			bid.T, bid.Bids, bid.Multi = 0, bid.Bids[:0], bid.Multi[:0]
			env.Bid = bid
		}
		var err error
		rp.timed(true, t, layerDecode, func() { err = json.Unmarshal(rp.frame, env) })
		if err != nil || env.Bid == nil || env.Bid.T != t {
			return nil, fmt.Errorf("replay decode round %d session %d: %v", t, s, err)
		}
		rp.timed(true, t, layerIngestAdd, func() {
			for i := range env.Bid.Multi {
				ab := &env.Bid.Multi[i]
				for j := range ab.Bids {
					wb := &ab.Bids[j]
					rp.buf.Add(ab.Agent, wb.Alt, wb.Price, wb.Covers, wb.Units)
				}
			}
		})
	}
	var ins *core.Instance
	rp.timed(true, t, layerIngestBuild, func() { ins = rp.buf.Build() })
	rp.bids += int64(len(ins.Bids))
	var err error
	rp.timed(true, t, layerValidate, func() { err = ins.Validate() })
	return ins, err
}

// walAppend builds the round's audit record the way the server does
// (deep-copied covers, the capacity map in force, the state hash) and
// appends it; the span covers both.
func (rp *replayer) walAppend(t int, ins *core.Instance, awards []platform.WireAward, res *core.RoundResult, hash string, capacity map[int]int) error {
	var err error
	rp.timed(true, t, layerWALAppend, func() {
		rec := &platform.AuditRecord{
			T: t, Demand: ins.Demand, NeedyIDs: rp.tr.needyIDs, Awards: awards,
			Infeasible: res.Err != nil, Capacity: copyCapacity(capacity),
			Windows: map[int]core.BidderWindow{}, StateHash: hash,
		}
		if res.Err == nil {
			rec.SocialCost = res.Outcome.SocialCost
		}
		for _, b := range ins.Bids {
			rec.Bids = append(rec.Bids, platform.AuditBid{
				Bidder: b.Bidder, Alt: b.Alt, Price: b.Price,
				Covers: append([]int(nil), b.Covers...), Units: b.Units,
			})
		}
		err = rp.wal.Append(rec)
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(rp.walPath)
	if err != nil {
		return err
	}
	rp.walBytes = fi.Size()
	return nil
}

// encodeResult marshals the round's result envelope as the server does
// before fanning it out.
func (rp *replayer) encodeResult(t int, awards []platform.WireAward, res *core.RoundResult) error {
	msg := &platform.ResultMsg{T: t, Awards: awards, Infeasible: res.Err != nil}
	if res.Err == nil {
		msg.SocialCost = res.Outcome.SocialCost
	}
	var data []byte
	var err error
	rp.timed(true, t, layerResultEncode, func() {
		data, err = json.Marshal(&platform.Envelope{Type: platform.TypeResult, Result: msg})
		data = append(data, '\n')
	})
	rp.resBytes += int64(len(data))
	return err
}

// ledger sums spans per layer over the timed rounds.
type ledger struct {
	rounds int
	dur    map[string]time.Duration
	alloc  map[string]int64
}

func newLedger(log *spanLog, from, to int) *ledger {
	lg := &ledger{rounds: to - from + 1, dur: map[string]time.Duration{}, alloc: map[string]int64{}}
	for _, s := range log.spans {
		if s.Round < from || s.Round > to {
			continue
		}
		lg.dur[s.Layer] += time.Duration(s.DurNs)
		lg.alloc[s.Layer] += s.AllocBytes
	}
	return lg
}

// meanMs is a layer's mean time per round.
func (lg *ledger) meanMs(layer string) float64 {
	return float64(lg.dur[layer]) / float64(lg.rounds) / float64(time.Millisecond)
}

// selfMs is a layer's mean time per round minus its children's.
func (lg *ledger) selfMs(layer string) float64 {
	self := lg.meanMs(layer)
	for child, parent := range layerParent {
		if parent == layer {
			self -= lg.meanMs(child)
		}
	}
	return self
}

// printSelfTimes writes the self-time table.
func (lg *ledger) printSelfTimes(w io.Writer, title string) {
	round := lg.meanMs(layerRound)
	fmt.Fprintf(w, "self-time table: %s (%d traced rounds, mean per round)\n", title, lg.rounds)
	fmt.Fprintf(w, "  %-14s %-8s %10s %10s %8s\n", "layer", "parent", "total_ms", "self_ms", "self_%")
	for _, l := range layerOrder {
		fmt.Fprintf(w, "  %-14s %-8s %10.4f %10.4f %7.1f%%\n", l, layerParent[l], lg.meanMs(l), lg.selfMs(l), 100*lg.selfMs(l)/round)
	}
}

// countsPerRound averages the tracer's kernel counts over rounds from..to.
func (lt *layerTracer) countsPerRound(from, to int) (picks, replays, hitRatio, pivotal, psi float64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var sum roundCounts
	for t := from; t <= to; t++ {
		if c := lt.counts[t]; c != nil {
			sum.picks += c.picks
			sum.replays += c.replays
			sum.hits += c.hits
			sum.pivotal += c.pivotal
			sum.psi += c.psi
		}
	}
	n := float64(to - from + 1)
	if sum.replays > 0 {
		hitRatio = float64(sum.hits) / float64(sum.replays)
	}
	return float64(sum.picks) / n, float64(sum.replays) / n, hitRatio, float64(sum.pivotal) / n, float64(sum.psi) / n
}
