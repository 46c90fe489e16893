package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/serve"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// poolSize is the number of distinct request sequences the generator
// draws from; each version's expected answers are computed for all.
const poolSize = 128

// phaseStats is one open-loop phase at a fixed offered rate.
type phaseStats struct {
	name      string
	rate      float64
	sent      int
	succeeded int
	failed    int
	// p50 and p99 are the phase's latency percentiles in ms, each request
	// timed from its due time; a failed request counts as +Inf.
	p50, p99 float64
	// lat keeps every latency of a fixed-rate phase, so percentiles can be
	// pooled over blocks; ladder probes keep only their percentiles.
	lat []float64
	// lateP99 is how far behind schedule the generator sent requests, p99
	// in ms.
	lateP99 float64
	// backlog is the number of requests still unanswered when the last
	// one was sent.
	backlog   int
	aborted   bool    // ended early on a backlog past the ladder's allowance
	steal     float64 // share of CPU time the host took during the phase
	occupancy float64 // mean Result.BatchSize
	mismatch  int     // responses that do not bit-match their version
}

// serveResult is the serving half of a run.
type serveResult struct {
	setups  []time.Duration // serve.New + first install, per repetition
	phases  []*phaseStats
	lows    []*phaseStats // one low-rate phase per block
	highs   []*phaseStats // one high-rate phase per block
	goodput float64
	// overturned counts ladder rungs whose first probe failed and whose
	// second passed.
	overturned int
	installs   []time.Duration
	rejected   float64
}

// version is one weight set of the install rotation with its expected
// answers: want[q] is its logits for pool sequence q.
type version struct {
	ws   []*tensor.Tensor
	want [][]float32
}

// serveBench drives a Server open-loop. The install rotation alternates
// the first weight set with the newest one; byRound[label] is the
// version installed under that round label.
type serveBench struct {
	task    *workload.Task
	s       *serve.Server
	reg     *obs.Registry
	pool    [][]int
	label   atomic.Int64 // round label of the newest install
	tracer  *obs.Tracer
	corrupt bool
	rng     *rand.Rand
	epoch   time.Time

	mu       sync.Mutex
	rotation [2]*version // first, newest (nil until one is set)
	byRound  []*version
}

// traceServePID is the Chrome-trace process row of serving spans.
const traceServePID = 2

func snapshotFrame(ws []*tensor.Tensor, round int) *netx.Frame {
	return &netx.Frame{Type: netx.FrameSnapshot, Round: uint32(round), Meta: uint32(len(ws)), Tensors: ws}
}

// newServeBench measures set-up (serve.New plus the first install of
// first) reps times and keeps the last server.
func newServeBench(task *workload.Task, first []*tensor.Tensor, seed int64, reps int, tracer *obs.Tracer) (*serveBench, []time.Duration, error) {
	b := &serveBench{task: task, tracer: tracer,
		rng: rand.New(rand.NewSource(seed*7919 + 17)), epoch: time.Now()}
	var setups []time.Duration
	for i := 0; i < reps; i++ {
		if b.s != nil {
			b.s.Close()
		}
		reg := obs.NewRegistry()
		start := time.Now()
		s, err := serve.New(serve.Config{Task: task, Obs: reg})
		if err != nil {
			return nil, nil, err
		}
		if err := s.InstallSnapshot(snapshotFrame(first, 1)); err != nil {
			s.Close()
			return nil, nil, err
		}
		setups = append(setups, time.Since(start))
		b.s, b.reg = s, reg
	}
	b.label.Store(1)
	vocab := b.s.Vocab()
	for q := 0; q < poolSize; q++ {
		toks := make([]int, b.s.SeqLen())
		for i := range toks {
			toks[i] = b.rng.Intn(vocab)
		}
		b.pool = append(b.pool, toks)
	}
	b.rotation[0] = b.newVersion(first)
	b.byRound = []*version{nil, b.rotation[0]}
	return b, setups, nil
}

// newVersion computes a weight set's expected answers with the
// interpreter's eval forward of each pool sequence alone — the reference
// the served outputs must bit-match.
func (b *serveBench) newVersion(ws []*tensor.Tensor) *version {
	m := b.task.NewModel(1)
	for i, p := range m.Params() {
		p.W.CopyFrom(ws[i])
	}
	v := &version{ws: ws, want: make([][]float32, poolSize)}
	for q, toks := range b.pool {
		x := tensor.New(len(toks), 1)
		for p, tok := range toks {
			x.Set(float32(tok), p, 0)
		}
		v.want[q] = append([]float32(nil), m.Forward(nn.NewContext(), x, false).Data()...)
	}
	return v
}

// setNewest makes ws the newest version of the rotation. It must be
// called between serving blocks, with no request in flight: it forgets
// every round label older than the installed one, which no later
// response can name, so the versions the harness holds stay bounded.
func (b *serveBench) setNewest(ws []*tensor.Tensor) {
	v := b.newVersion(ws)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rotation[1] = v
	cur := int(b.label.Load())
	for i := 0; i < cur; i++ {
		b.byRound[i] = nil
	}
}

func (b *serveBench) close() { b.s.Close() }

// swapLoop installs the next version every interval until stop closes;
// the round label grows by one per install.
func (b *serveBench) swapLoop(interval time.Duration, stop <-chan struct{}, installs *[]time.Duration) error {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		next := b.label.Load() + 1
		b.mu.Lock()
		v := b.rotation[next%2]
		if v == nil {
			v = b.rotation[0]
		}
		b.byRound = append(b.byRound, v)
		b.mu.Unlock()
		start := time.Now()
		if err := b.s.InstallSnapshot(snapshotFrame(v.ws, int(next))); err != nil {
			return fmt.Errorf("install round %d: %w", next, err)
		}
		d := time.Since(start)
		*installs = append(*installs, d)
		b.label.Store(next)
		if b.tracer != nil {
			b.tracer.Span(traceServePID, 0, "serve.install", "serve", us(start.Sub(b.epoch)), us(d),
				map[string]any{"round": next})
		}
	}
}

// record is one request's outcome, written only by its own goroutine.
// The response is checked there and dropped, so the harness holds no
// logits beyond the requests in flight.
type record struct {
	lat   float64 // ms from the due time
	batch int
	err   bool
	match bool
}

// phase offers requests open-loop at rate for dur: one scheduling
// goroutine sends each request at its due time (a seeded Poisson
// schedule) on its own goroutine, and latency is timed from the due
// time, so a stall also charges the requests queued behind it.
// A positive maxBacklog ends the phase early, as failed, once more
// requests than that are outstanding: a ladder probe above capacity has
// then already missed its limit, and draining an ever-growing queue
// would only lengthen the run. keep retains every latency in the stats.
func (b *serveBench) phase(ctx context.Context, name string, rate float64, dur time.Duration, maxBacklog int, keep bool) *phaseStats {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	offs := arrivals(n, rate, b.rng.Float64)
	qs := make([]int, n)
	for i := range qs {
		qs[i] = b.rng.Intn(poolSize)
	}
	recs := make([]record, n)
	late := make([]float64, n)
	st := &phaseStats{name: name, rate: rate, sent: n}
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	steal := readSteal()
	start := time.Now()
	for i := 0; i < n; i++ {
		if maxBacklog > 0 && int(inflight.Load()) > maxBacklog {
			st.aborted = true
			st.sent = i
			recs, late = recs[:i], late[:i]
			break
		}
		due := start.Add(offs[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(lateness(due, time.Now()))
		wg.Add(1)
		inflight.Add(1)
		go func(i, q int, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			res, err := b.s.Predict(ctx, b.pool[q])
			lat := time.Since(due)
			r := &recs[i]
			r.lat = ms(lat)
			if err != nil {
				r.err = true
			} else {
				if b.corrupt && i == 0 && len(res.Logits) > 0 && len(res.Logits[0]) > 0 {
					res.Logits[0][0] = math.Nextafter32(res.Logits[0][0], float32(math.Inf(1)))
				}
				r.batch, r.match = res.BatchSize, b.matches(q, res)
			}
			if b.tracer != nil {
				args := map[string]any{"phase": name}
				if err == nil {
					args["round"], args["batch"] = res.Round, res.BatchSize
				}
				b.tracer.Span(traceServePID, 1, "serve.predict", "serve", us(due.Sub(b.epoch)), us(lat), args)
			}
		}(i, qs[i], due)
	}
	st.backlog = int(inflight.Load())
	wg.Wait()
	st.steal = steal.since()
	lat := make([]float64, len(recs))
	var occ float64
	for i, r := range recs {
		if r.err {
			st.failed++
			lat[i] = math.Inf(1)
			continue
		}
		st.succeeded++
		lat[i] = r.lat
		occ += float64(r.batch)
		if !r.match {
			st.mismatch++
		}
	}
	if st.succeeded > 0 {
		st.occupancy = occ / float64(st.succeeded)
	}
	st.p50, st.p99 = percentile(lat, 0.5), percentile(lat, 0.99)
	st.lateP99 = percentile(late, 0.99)
	if keep {
		st.lat = lat
	}
	return st
}

// matches checks one response against the expected logits of the
// version its Round names, for pool sequence q.
func (b *serveBench) matches(q int, res *serve.Result) bool {
	b.mu.Lock()
	var v *version
	if res.Round >= 1 && res.Round < len(b.byRound) {
		v = b.byRound[res.Round]
	}
	b.mu.Unlock()
	if v == nil {
		return false
	}
	want := v.want[q]
	i := 0
	for _, row := range res.Logits {
		for _, x := range row {
			if i >= len(want) || math.Float32bits(x) != math.Float32bits(want[i]) {
				return false
			}
			i++
		}
	}
	return i == len(want)
}

// passes reports whether a ladder rung met the p99 limit with no failed
// request and without a growing backlog: at the end of the schedule no
// more requests may be outstanding than the limit's worth of arrivals
// plus one full batch.
func (st *phaseStats) passes(limitMS float64) bool {
	return !st.aborted && st.failed == 0 && st.backlog <= allowedBacklog(st.rate, limitMS) && st.p99 <= limitMS
}

func allowedBacklog(rate, limitMS float64) int { return int(rate*limitMS/1000) + 8 }

// serveRun is the serving half of a run. It is measured in blocks the
// caller interleaves with training, so that a burst of outside load on
// a shared host lands in a minority of blocks and the latencies pooled
// over the calmer blocks stay put. Each block offers the low rate, then
// the high rate, then probes one rung of the goodput ladder (a binary
// search over the fixed rungs), while a snapshot is installed every
// swap interval.
type serveRun struct {
	cfg    *config
	sc     serveCfg
	o      options
	b      *serveBench
	res    *serveResult
	heap   *heapSampler
	rungs  []float64
	ladder ladder
}

// serveSetupReps is how many times a run sets the server up; setup_s
// takes the median.
const serveSetupReps = 15

func newServeRun(cfg *config, sc serveCfg, task *workload.Task, first []*tensor.Tensor, seed int64,
	o options, tracer *obs.Tracer, heap *heapSampler) (*serveRun, error) {
	reps := serveSetupReps
	if o.smoke {
		reps = 2
	}
	b, setups, err := newServeBench(task, first, seed, reps, tracer)
	if err != nil {
		return nil, err
	}
	b.corrupt = o.corrupt == "response"
	rungs := cfg.LadderRPS
	if o.smoke {
		rungs = rungs[:2]
	}
	return &serveRun{cfg: cfg, sc: sc, o: o, b: b, heap: heap, rungs: rungs,
		ladder: newLadder(len(rungs)), res: &serveResult{setups: setups}}, nil
}

// block runs one serving block: the fixed-rate phases, each lasting
// 1/blocks of its share of the run (unless fixedPhases is false), and
// one ladder probe while the search is open.
func (r *serveRun) block(ctx context.Context, blocks int, fixedPhases bool) error {
	share := func(s float64) time.Duration {
		if r.o.smoke {
			return 100 * time.Millisecond
		}
		return phaseDur(r.o.seconds, s/float64(blocks))
	}
	stop := make(chan struct{})
	var (
		swapErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		swapErr = r.b.swapLoop(time.Duration(r.sc.SwapMS)*time.Millisecond, stop, &r.res.installs)
	}()
	if fixedPhases {
		low := r.b.phase(ctx, "low", r.cfg.LowRPS, share(r.sc.LowShare), 0, true)
		high := r.b.phase(ctx, "high", r.cfg.HighRPS, share(r.sc.HighShare), 0, true)
		r.res.lows = append(r.res.lows, low)
		r.res.highs = append(r.res.highs, high)
		r.res.phases = append(r.res.phases, low, high)
	}
	if !r.ladder.done() {
		// The overload probes queue an arbitrary backlog, so they are
		// left out of peak_heap_mb.
		r.heap.pause(true)
		mid := r.ladder.next()
		rate := r.rungs[mid]
		st := r.b.phase(ctx, fmt.Sprintf("ladder_%g", rate), rate, share(r.sc.RungShare*float64(blocks)),
			allowedBacklog(rate, r.cfg.ServeP99LimitMS), false)
		r.res.phases = append(r.res.phases, st)
		r.ladder.record(mid, st.passes(r.cfg.ServeP99LimitMS))
		r.heap.pause(false)
	}
	close(stop)
	wg.Wait()
	return swapErr
}

// finish closes the server and returns the serving results.
func (r *serveRun) finish() *serveResult {
	if top := r.ladder.top(); top >= 0 {
		r.res.goodput = r.rungs[top]
	}
	r.res.overturned = r.ladder.overturned
	r.res.rejected = family(r.b.reg, "avgpipe_serve_rejected_total")
	r.b.close()
	return r.res
}

// calmPercentile is the q-quantile of the latencies pooled over the
// calmer blocks (see calmest).
func calmPercentile(blocks []*phaseStats, q float64) float64 {
	steal := make([]float64, len(blocks))
	for i, b := range blocks {
		steal[i] = b.steal
	}
	var lat []float64
	for _, i := range calmest(steal) {
		lat = append(lat, blocks[i].lat...)
	}
	return percentile(lat, q)
}

// lowestP50 is the smallest per-block p50 of a fixed-rate phase. At the
// high rate the server runs at about half its capacity, so a burst of
// CPU steal on a shared host queues requests and raises a block's p50
// 2-20x; the coarse steal reading does not pick those blocks out well
// enough for calmPercentile, while the calmest block by latency stays
// put (ten-seed IQR/median 0.15 against 0.27 for calmPercentile, in the
// same runs on a host with 10-40% steal). Each block is long enough to
// span every step of the serving path, snapshot installs included on
// serve_swap (one every 50 ms across its 0.3 s high-rate block).
func lowestP50(blocks []*phaseStats) float64 {
	low := math.Inf(1)
	for _, b := range blocks {
		low = math.Min(low, b.p50)
	}
	return low
}

// counts sums sent, failed and mismatched requests over every phase.
func (r *serveResult) counts() (sent, failed, mismatch int) {
	for _, p := range r.phases {
		sent += p.sent
		failed += p.failed
		mismatch += p.mismatch
	}
	return sent, failed, mismatch
}

// lateP99 is the generator's p99 lateness in its worst fixed-rate
// phase, in ms: the phases whose latencies are reported. A ladder probe
// above capacity starves the generator too, which says nothing of it.
func (r *serveResult) lateP99() float64 {
	var worst float64
	for _, ps := range [][]*phaseStats{r.lows, r.highs} {
		for _, p := range ps {
			worst = math.Max(worst, p.lateP99)
		}
	}
	return worst
}
