// Command perfbench is the repository's platform benchmark. It times the
// internal/platform server (announce, gather, core.MSOA clear, WAL, award
// fan-out) from outside: the SUT is this process, a platform.Server plus a
// closed loop calling the serial RunRound back to back, and the
// load is a deterministic fleet in a separate OS process (this binary's
// "fleet" mode) over at most two multiplexed TCP sessions.
//
//	perfbench --workload fleet-10k --seed 1 --seconds 15 --trace 0
//
// prints the end-to-end metrics (--trace 1: the per-layer metrics of a
// traced run) as the last stdout line. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// setupRepeats is how many times a timed run sets up; setup_s is the
	// median and the last set-up is the one measured.
	setupRepeats = 3
	// minTimedRounds keeps at least 10 samples beyond round_p95.
	minTimedRounds = 200
	// minTracedRounds bounds the traced segments from below.
	minTracedRounds = 20
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		if err := runFleet(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench fleet:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: fleet-10k, market-dense or durable-10k")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "measured seconds per run")
	trace := fl.Int("trace", 0, "1: traced run printing the per-layer metrics")
	control := fl.String("control", "", "negative control: corrupt-payment or withhold")
	workdir := fl.String("workdir", ".bench_build", "scratch directory for WAL files and span logs")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *control != "" && *control != "corrupt-payment" && *control != "withhold" {
		return fmt.Errorf("unknown control %q", *control)
	}
	runtime.GOMAXPROCS(sutProcs())
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	tr, err := genTraffic(w, *seed, sessionCount())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	o := &runOptions{
		w: w, tr: tr, seed: *seed, workdir: tmp,
		corrupt: *control == "corrupt-payment", withhold: *control == "withhold",
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		spans := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		res, err = runTraced(o, d, spans)
	} else {
		res, err = runTimed(o, d)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// accounting is printed next to the metrics on every run.
type accounting struct {
	Workload        string  `json:"workload"`
	Seed            int64   `json:"seed"`
	RoundsAttempted int     `json:"rounds_attempted"`
	RoundsFailed    int     `json:"rounds_failed"`
	UntimedFailed   int     `json:"untimed_rounds_failed"`
	GateOK          bool    `json:"gate_ok"`
	BidsSent        int64   `json:"bids_sent"`
	BidsGathered    int64   `json:"bids_gathered"`
	Rejections      int64   `json:"rejections"`
	Drops           int64   `json:"drops"`
	FleetErrors     int64   `json:"fleet_errors"`
	Withheld        int64   `json:"withheld_batches"`
	BusyFrac        float64 `json:"loadgen.busy_frac"`
	Sessions        int     `json:"sessions"`
	SUTProcs        int     `json:"gomaxprocs_sut"`
	FleetProcs      int     `json:"gomaxprocs_fleet"`
	RoundSamples    int     `json:"round_samples"`
	AwardSamples    int     `json:"bid_to_award_samples"`
}

// tally folds one finished, verified server run into the accounting.
func (a *accounting) tally(r *serverRun, gateOK, timed bool) {
	expect := len(r.opts.tr.bids)
	for i := range r.rounds {
		rec := &r.rounds[i]
		f := rec.failed(expect)
		switch {
		case timed && i >= r.measuredFrom:
			a.RoundsAttempted++
			if f {
				a.RoundsFailed++
			}
		case f:
			a.UntimedFailed++
		}
		a.BidsGathered += int64(rec.bids)
	}
	a.GateOK = a.GateOK && gateOK
	a.BidsSent += r.report.BidsSent
	a.Rejections += r.rejectCount + r.report.Rejections
	a.Drops += r.dropCount
	a.FleetErrors += r.report.Errors
	a.Withheld += r.report.Withheld
	a.BusyFrac = r.report.BusyFrac
	a.FleetProcs = r.report.GoMaxProcs
}

func (a *accounting) correct() bool {
	return a.GateOK && a.RoundsFailed == 0 && a.UntimedFailed == 0 &&
		a.BidsSent == a.BidsGathered && a.Rejections == 0 && a.Drops == 0 && a.FleetErrors == 0
}

func (a *accounting) print() {
	b, err := json.Marshal(map[string]any{"accounting": a})
	if err == nil {
		fmt.Println(string(b))
	}
}

func newAccounting(o *runOptions) *accounting {
	return &accounting{
		Workload: o.w.name, Seed: o.seed, GateOK: true,
		Sessions: len(o.tr.sessions), SUTProcs: runtime.GOMAXPROCS(0),
	}
}

// finish closes and verifies a run, folding it into the accounting.
func finish(r *serverRun, rp *replayer, acct *accounting, timed bool) error {
	defer r.removeWAL()
	if err := r.close(); err != nil {
		return err
	}
	ok, err := verify(r, rp)
	if err != nil {
		return err
	}
	acct.tally(r, ok, timed)
	return nil
}

// runTimed is the untraced run: setupRepeats set-ups, the last of which
// clears rounds back to back for d and is measured.
func runTimed(o *runOptions, d time.Duration) (*result, error) {
	acct := newAccounting(o)
	var setups []float64
	var m map[string]metric
	for i := 0; i < setupRepeats; i++ {
		r, err := startRun(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		if i < setupRepeats-1 {
			if err := finish(r, nil, acct, false); err != nil {
				return nil, err
			}
			continue
		}
		wall, rss := r.measure(d, minTimedRounds)
		if err := finish(r, nil, acct, true); err != nil {
			return nil, err
		}
		if m, err = endToEnd(r, wall, rss); err != nil {
			return nil, err
		}
		acct.RoundSamples = len(r.measured())
		acct.AwardSamples = len(awardSamples(r))
	}
	m["setup_s"] = metric{median(setups), "s"}
	acct.print()
	return &result{Correct: acct.correct(), Attempted: acct.RoundsAttempted, Failed: acct.RoundsFailed, Metrics: m}, nil
}

// endToEnd computes the eight user-visible metrics but setup_s.
// alloc_bytes_per_bid is the median round's allocation per gathered bid:
// the kernel's pooled scratch is per processor, and the rare round that
// runs on a processor with a cold pool allocates it anew, which would
// make a mean swing with how many such rounds a run happens to have.
func endToEnd(r *serverRun, wall time.Duration, rss float64) (map[string]metric, error) {
	rounds := r.measured()
	durs := roundMs(rounds)
	var perBid []float64
	for i := range rounds {
		if rounds[i].bids > 0 {
			perBid = append(perBid, float64(rounds[i].alloc)/float64(rounds[i].bids))
		}
	}
	awards := awardSamples(r)
	var errs []error
	pct := func(xs []float64, q float64) float64 {
		v, err := percentile(xs, q)
		errs = append(errs, err)
		return v
	}
	m := map[string]metric{
		"rounds_per_s":        {float64(len(rounds)) / wall.Seconds(), "rounds/s"},
		"round_p50_ms":        {pct(durs, 0.50), "ms"},
		"round_p95_ms":        {pct(durs, 0.95), "ms"},
		"bid_to_award_p50_ms": {pct(awards, 0.50), "ms"},
		"bid_to_award_p95_ms": {pct(awards, 0.95), "ms"},
		"max_rss_mb":          {rss, "MB"},
	}
	if len(perBid) > 0 {
		m["alloc_bytes_per_bid"] = metric{median(perBid), "B"}
	} else {
		errs = append(errs, errors.New("no bids gathered"))
	}
	return m, errors.Join(errs...)
}

// awardSamples returns the fleet's bid-to-award times (ms) of the timed
// rounds.
func awardSamples(r *serverRun) []float64 {
	rounds := r.measured()
	if len(rounds) == 0 {
		return nil
	}
	lo, hi := int64(rounds[0].t), int64(rounds[len(rounds)-1].t)
	var out []float64
	for _, s := range r.report.Samples {
		if s[0] >= lo && s[0] <= hi {
			out = append(out, float64(s[1])/float64(time.Millisecond))
		}
	}
	return out
}

// runTraced is the traced run. An untraced segment and a traced segment,
// each on its own set-up and d/2 long, give the tracing overhead; the
// traced segment's rounds are then replayed layer by layer.
func runTraced(o *runOptions, d time.Duration, spansPath string) (*result, error) {
	acct := newAccounting(o)
	plain, err := startRun(o)
	if err != nil {
		return nil, err
	}
	plain.measure(d/2, minTracedRounds)
	if err := finish(plain, nil, acct, true); err != nil {
		return nil, err
	}

	log := &spanLog{t0: time.Now()}
	lt := newLayerTracer(log)
	traced := *o
	traced.tracer = lt
	r, err := startRun(&traced)
	if err != nil {
		return nil, err
	}
	lt.startAt(len(r.rounds) + 1)
	r.measure(d/2, minTracedRounds)
	rp, err := newReplayer(o.tr, o.w, log, o.workdir)
	if err != nil {
		r.abort()
		return nil, err
	}
	ferr := finish(r, rp, acct, true)
	if err := errors.Join(ferr, rp.close()); err != nil {
		return nil, err
	}
	rounds := r.measured()
	for i := range rounds {
		log.add(rounds[i].t, layerRound, "sut", rounds[i].start, rounds[i].dur, 0)
	}
	from, to := rounds[0].t, rounds[len(rounds)-1].t
	lg := newLedger(log, from, to)
	lg.printSelfTimes(os.Stderr, o.w.name)
	if err := log.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", spansPath)

	m := layerMetrics(lg, lt, rp, from, to)
	m["obs.trace_overhead_pct"] = metric{100 * (median(roundMs(rounds))/median(roundMs(plain.measured())) - 1), "%"}
	m["loadgen.busy_frac"] = metric{acct.BusyFrac, "ratio"}
	acct.print()
	return &result{Correct: acct.correct(), Attempted: acct.RoundsAttempted, Failed: acct.RoundsFailed, Metrics: m}, nil
}

// layerMetrics derives the per-layer metrics from the ledger, the
// tracer's counts and the replay's byte counts.
func layerMetrics(lg *ledger, lt *layerTracer, rp *replayer, from, to int) map[string]metric {
	n := float64(lg.rounds)
	picks, replays, hitRatio, pivotal, psi := lt.countsPerRound(from, to)
	settleLayers := lg.meanMs(layerMSOA) + lg.meanMs(layerStateHash) + lg.meanMs(layerWALAppend) + lg.meanMs(layerResultEncode)
	m := map[string]metric{
		"platform.round_ms":              {lg.meanMs(layerRound), "ms"},
		"platform.decode_ms":             {lg.meanMs(layerDecode), "ms"},
		"platform.decode_mb_per_round":   {float64(rp.decodeBytes) / float64(rp.rounds) / 1e6, "MB"},
		"core.ingest_add_ns_per_bid":     {float64(lg.dur[layerIngestAdd]) / float64(rp.bids), "ns"},
		"core.ingest_build_ms":           {lg.meanMs(layerIngestBuild), "ms"},
		"core.validate_ms":               {lg.meanMs(layerValidate), "ms"},
		"platform.gather_ms":             {lg.meanMs(layerGather), "ms"},
		"platform.bid_rtt_p50_ms":        {lt.rttP50(), "ms"},
		"core.msoa_round_ms":             {lg.meanMs(layerMSOA), "ms"},
		"core.greedy_picks_per_round":    {picks, "count"},
		"core.payment_replays_per_round": {replays, "count"},
		"core.checkpoint_hit_ratio":      {hitRatio, "ratio"},
		"core.pivotal_per_round":         {pivotal, "count"},
		"core.excluded_bids_per_round":   {float64(rp.excluded) / float64(rp.rounds), "count"},
		"core.psi_updates_per_round":     {psi, "count"},
		"platform.settle_ms":             {lg.meanMs(layerSettle), "ms"},
		"platform.result_encode_ms":      {lg.meanMs(layerResultEncode), "ms"},
		"platform.result_bytes":          {float64(rp.resBytes) / float64(rp.rounds), "B"},
		"platform.fanout_ms":             {lg.meanMs(layerSettle) - settleLayers, "ms"},
		"platform.wal_append_ms":         {lg.meanMs(layerWALAppend), "ms"},
		"platform.wal_bytes_per_round":   {float64(rp.walBytes) / n, "B"},
		"core.state_hash_ms":             {lg.meanMs(layerStateHash), "ms"},
		"platform.unattributed_ms":       {lg.selfMs(layerRound), "ms"},
	}
	for _, l := range replayedLayers {
		m["core.alloc_bytes_per_bid."+l] = metric{float64(lg.alloc[l]) / float64(rp.bids), "B"}
	}
	return m
}

// roundMs lists the rounds' RunRound durations in ms.
func roundMs(rounds []roundRec) []float64 {
	durs := make([]float64, len(rounds))
	for i := range rounds {
		durs[i] = float64(rounds[i].dur) / float64(time.Millisecond)
	}
	return durs
}

// percentile is the nearest-rank q-quantile of xs. It refuses a quantile
// with fewer than 10 samples beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || (q > 0.5 && n-rank < 10) {
		return 0, fmt.Errorf("p%g needs 10 samples beyond it, have %d samples", 100*q, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxRSSMB is the peak resident set of this process (the SUT) in MB; the
// fleet is another process and is not included.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
