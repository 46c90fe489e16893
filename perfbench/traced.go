package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"avgpipe/internal/core"
	"avgpipe/internal/data"
	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/optim"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// Chrome-trace coordinates of the traced run: training spans on
// process 1 (one track per pipeline, plus the round track), serving on
// process 2, layer measurements on process 3.
const (
	traceTrainPID = 1
	traceLayerPID = 3
	roundTID      = 100
)

// replica is one averaging process of the traced loop: in process, one
// averager that owns every pipeline; over TCP, one averager per
// replica owning its own pipeline.
type replica struct {
	avg   *core.Averager
	pipes []int
}

// tracedLoop re-implements Trainer.StepContext (in process) and
// stepDist (TCP) from the layers' public functions, so each call can be
// timed. Its per-round losses must bit-equal the Trainer's.
type tracedLoop struct {
	tc        trainCfg
	task      *workload.Task
	tracer    *obs.Tracer
	epoch     time.Time
	pipes     []*core.Pipeline
	gens      []data.Generator
	opts      []optim.Optimizer
	replicas  []replica
	evalModel *nn.Sequential
	evalGen   data.Generator
	regs      []*obs.Registry // TCP transport registries
	avgRegs   []*obs.Registry

	// codec is the benchmark's own compressor, fed a copy of pipeline
	// 0's real delta every round, outside the timed step.
	codec  *netx.Compressor
	prev   []*tensor.Tensor
	posted []*tensor.Tensor

	mu    sync.Mutex
	spans map[string][]time.Duration
	stage [][3]float64 // per stage: busy ms, bubble fraction, peak in-flight (summed)
	nMet  int
}

func newOptimizer(task *workload.Task) optim.Optimizer {
	if task.UseSGD {
		return optim.NewSGD(task.LR)
	}
	return optim.NewAdam(task.LR)
}

// newTracedLoop builds what NewTrainer builds, in the same order.
func newTracedLoop(ctx context.Context, tc trainCfg, task *workload.Task, seed int64, tracer *obs.Tracer) (*tracedLoop, error) {
	adv, err := tc.advance()
	if err != nil {
		return nil, err
	}
	codec, err := tc.codec()
	if err != nil {
		return nil, err
	}
	l := &tracedLoop{tc: tc, task: task, tracer: tracer, epoch: time.Now(),
		spans: make(map[string][]time.Duration), stage: make([][3]float64, stages)}
	n := pipelines
	base := task.NewModel(seed)
	l.pipes = make([]*core.Pipeline, n)
	l.gens = make([]data.Generator, n)
	l.opts = make([]optim.Optimizer, n)
	for p := 0; p < n; p++ {
		pl, err := core.NewPipelineWith(task.NewModel(seed), core.PipelineConfig{
			Stages: stages, Advance: adv, Obs: obs.NewRegistry(), Compiled: true,
		})
		if err != nil {
			return nil, err
		}
		l.pipes[p] = pl
		l.gens[p] = task.NewGen(seed + 100 + int64(p))
		l.opts[p] = newOptimizer(task)
	}
	switch tc.Transport {
	case "inproc":
		reg := obs.NewRegistry()
		avg := core.NewAveragerObs(n, base.Params(), reg)
		avg.SetFaults(nil)
		if codec != netx.CodecNone {
			if err := avg.SetCompression(codec, 0); err != nil {
				return nil, err
			}
		}
		all := make([]int, n)
		for p := range all {
			all[p] = p
		}
		l.replicas = []replica{{avg: avg, pipes: all}}
		l.avgRegs = []*obs.Registry{reg}
	case "tcp":
		start := time.Now()
		meshes, regs, err := formTCP(ctx, n)
		if err != nil {
			return nil, err
		}
		l.span("net.form", 0, start, nil)
		l.regs = regs
		for p, m := range meshes {
			reg := obs.NewRegistry()
			avg := core.NewAveragerObs(n, base.Params(), reg)
			avg.SetFaults(nil)
			avg.AttachMesh(m)
			if codec != netx.CodecNone {
				if !m.SupportsCodec(codec) {
					return nil, fmt.Errorf("a mesh peer does not support codec %v", codec)
				}
				if err := avg.SetCompression(codec, 0); err != nil {
					return nil, err
				}
			}
			l.replicas = append(l.replicas, replica{avg: avg, pipes: []int{p}})
			l.avgRegs = append(l.avgRegs, reg)
		}
	default:
		return nil, fmt.Errorf("unknown transport %q", tc.Transport)
	}
	l.evalModel = base
	l.evalGen = task.NewGen(seed + 999)
	if l.codec, err = netx.NewCompressor(netx.CodecTopK, 0); err != nil {
		return nil, err
	}
	l.prev = cloneWeights(l.pipes[0].Params())
	return l, nil
}

// span records one timed call on the trace and in the per-name sample.
func (l *tracedLoop) span(name string, tid int, start time.Time, args map[string]any) time.Duration {
	d := time.Since(start)
	l.tracer.Span(traceTrainPID, tid, name, "train", us(start.Sub(l.epoch)), us(d), args)
	l.mu.Lock()
	l.spans[name] = append(l.spans[name], d)
	l.mu.Unlock()
	return d
}

// step runs one round and returns each replica's loss (in process, the
// mean over pipelines, summed in pipeline order as the Trainer does).
func (l *tracedLoop) step(ctx context.Context, round int) ([]float64, time.Duration, error) {
	start := time.Now()
	args := map[string]any{"round": round}
	var (
		losses = make([]float64, len(l.pipes))
		errs   = make([]error, len(l.pipes))
		wg     sync.WaitGroup
	)
	if l.tc.Transport == "inproc" {
		avg := l.replicas[0].avg
		for p := range l.pipes {
			t0 := time.Now()
			batch := l.gens[p].NextBatch(l.task.BatchSize)
			l.span("data.next_batch", p, t0, args)
			wg.Add(1)
			go func(p int, batch *data.Batch) {
				defer wg.Done()
				losses[p], errs[p] = l.local(ctx, p, round, batch, avg)
			}(p, batch)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		if err := avg.DrainContext(ctx); err != nil {
			return nil, 0, err
		}
		l.span("elastic.wait", roundTID, t0, args)
		for p := range l.pipes {
			t0 := time.Now()
			avg.Dilute(p, l.pipes[p].Params())
			l.span("elastic.dilute", p, t0, args)
		}
		var total float64
		for _, x := range losses {
			total += x
		}
		d := l.span("round", roundTID, start, args)
		return []float64{total / float64(len(l.pipes))}, d, nil
	}
	for i, r := range l.replicas {
		wg.Add(1)
		go func(i int, r replica) {
			defer wg.Done()
			p := r.pipes[0]
			t0 := time.Now()
			batch := l.gens[p].NextBatch(l.task.BatchSize)
			l.span("data.next_batch", p, t0, args)
			if losses[i], errs[i] = l.local(ctx, p, round, batch, r.avg); errs[i] != nil {
				return
			}
			t0 = time.Now()
			if errs[i] = r.avg.WaitRound(ctx, round); errs[i] != nil {
				return
			}
			l.span("elastic.wait", p, t0, args)
			t0 = time.Now()
			r.avg.Dilute(p, l.pipes[p].Params())
			l.span("elastic.dilute", p, t0, args)
		}(i, r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	d := l.span("round", roundTID, start, args)
	return losses, d, nil
}

// local is one pipeline's share of a round: pipelined batch, clipping,
// the optimizer step, and the update submission.
func (l *tracedLoop) local(ctx context.Context, p, round int, batch *data.Batch, avg *core.Averager) (float64, error) {
	args := map[string]any{"round": round}
	pl := l.pipes[p]
	t0 := time.Now()
	loss, err := pl.RunBatchContext(ctx, batch, micro)
	if err != nil {
		nn.ZeroGrads(pl.Params())
		return 0, fmt.Errorf("pipeline %d: %w", p, err)
	}
	l.span("pipeline.run_batch", p, t0, args)
	l.recordStages(pl.Metrics())
	optim.ClipGradNorm(pl.Params(), clipNorm)
	t0 = time.Now()
	l.opts[p].Step(pl.Params())
	l.span("optim.step", p, t0, args)
	nn.ZeroGrads(pl.Params())
	if p == 0 {
		l.posted = cloneWeights(pl.Params())
	}
	t0 = time.Now()
	if err := avg.SubmitContext(ctx, p, round, pl.Params()); err != nil {
		return 0, err
	}
	l.span("elastic.submit", p, t0, args)
	return loss, nil
}

func (l *tracedLoop) recordStages(ms []core.StageMetrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s, m := range ms {
		l.stage[s][0] += float64(m.Busy) / float64(time.Millisecond)
		l.stage[s][1] += m.BubbleFraction()
		l.stage[s][2] += float64(m.PeakInFlight)
	}
	l.nMet++
}

// measureCodec packs and unpacks a copy of pipeline 0's delta for the
// round just finished with the benchmark's own compressor, and rolls
// the delta baseline forward to the post-dilution weights.
func (l *tracedLoop) measureCodec() (ratio float64, err error) {
	delta := make([]*tensor.Tensor, len(l.prev))
	elems := 0
	for i := range l.prev {
		delta[i] = tensor.Sub(l.posted[i], l.prev[i])
		elems += delta[i].Size()
	}
	t0 := time.Now()
	blob, err := l.codec.Pack(delta)
	if err != nil {
		return 0, err
	}
	l.span("net.codec_pack", 0, t0, nil)
	t0 = time.Now()
	pd, err := netx.DecodePackedDeltas(blob)
	if err != nil {
		return 0, err
	}
	pd.Dequantize()
	l.span("net.codec_unpack", 0, t0, nil)
	l.prev = cloneWeights(l.pipes[0].Params())
	return float64(4*elems) / float64(len(blob)), nil
}

// eval mirrors Trainer.Eval on replica 0's reference copy.
func (l *tracedLoop) eval() (loss, acc float64) {
	t0 := time.Now()
	avg := l.replicas[0].avg
	avg.Drain()
	avg.WriteReference(l.evalModel.Params())
	loss, acc = workload.Evaluate(l.evalModel, l.evalGen.EvalBatch(), l.task.PerPosition)
	l.span("eval", roundTID, t0, nil)
	return loss, acc
}

func (l *tracedLoop) close() {
	for _, r := range l.replicas {
		r.avg.Close()
	}
}

func (l *tracedLoop) medianUS(name string) float64 {
	var xs []float64
	for _, d := range l.spans[name] {
		xs = append(xs, us(d))
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// runTraced is the traced run: an untraced Trainer job and the traced
// loop over the same rounds from the same seed (their losses must
// bit-match), serving with spans around every call, and the layer
// measurements. It reports the per-layer metrics.
func runTraced(cfg *config, w *workloadCfg, o options, heap *heapSampler) (*result, *obs.Tracer, error) {
	ctx := context.Background()
	tc := w.Train
	task, err := tc.task()
	if err != nil {
		return nil, nil, err
	}
	rounds, check := tc.FixedRounds, checkEvery
	if o.smoke {
		rounds, check = 4, 2
	}
	seed := jobSeed(o.seed, 0)
	tracer := obs.NewTracer("perfbench")
	tracer.SetMeta("workload", o.workload)
	tracer.SetMeta("seed", o.seed)
	tracer.Process(traceTrainPID, "training")
	tracer.Process(traceServePID, "serving")
	tracer.Process(traceLayerPID, "layers")
	tracer.Thread(traceTrainPID, roundTID, "round")
	for p := 0; p < pipelines; p++ {
		tracer.Thread(traceTrainPID, p, fmt.Sprintf("pipeline %d", p))
	}

	// The untraced reference: the library's own Trainer.
	ref, err := newTrainer(ctx, tc, task, seed)
	if err != nil {
		return nil, nil, err
	}
	var refLosses [][]float64
	var refEvals [][2]float64
	var refSteps []float64
	for r := 1; r <= rounds; r++ {
		losses, d, err := ref.step(ctx)
		if err != nil {
			ref.close()
			return nil, nil, fmt.Errorf("reference round %d: %w", r, err)
		}
		refLosses = append(refLosses, losses)
		refSteps = append(refSteps, ms(d))
		if r%check == 0 {
			loss, acc := ref.eval()
			refEvals = append(refEvals, [2]float64{loss, acc})
		}
	}
	ref.close()

	// The traced loop.
	formReps := 5
	if o.smoke {
		formReps = 1
	}
	var forms []float64
	if tc.Transport == "tcp" {
		for i := 0; i < formReps; i++ {
			start := time.Now()
			meshes, _, err := formTCP(ctx, pipelines)
			if err != nil {
				return nil, nil, err
			}
			forms = append(forms, ms(time.Since(start)))
			for _, m := range meshes {
				m.Close()
			}
		}
	}
	arena0 := tensor.ReadArenaStats()
	l, err := newTracedLoop(ctx, tc, task, seed, tracer)
	if err != nil {
		return nil, nil, err
	}
	correct := true
	var (
		steps    []float64
		ratios   []float64
		mismatch int
		// first and last are the reference weights at the first and the
		// last eval check: the serving half installs them in turn.
		first, last []*tensor.Tensor
	)
	for r := 1; r <= rounds; r++ {
		losses, d, err := l.step(ctx, r-1)
		if err != nil {
			l.close()
			return nil, nil, fmt.Errorf("traced round %d: %w", r, err)
		}
		steps = append(steps, ms(d))
		if o.corrupt == "loss" && r == rounds {
			losses[0] = math.Nextafter(losses[0], math.Inf(1))
		}
		if !sameBits(losses, refLosses[r-1]) {
			mismatch++
		}
		ratio, err := l.measureCodec()
		if err != nil {
			l.close()
			return nil, nil, err
		}
		ratios = append(ratios, ratio)
		if r%check == 0 {
			loss, acc := l.eval()
			want := refEvals[r/check-1]
			if !sameBits([]float64{loss, acc}, want[:]) {
				mismatch++
			}
			last = cloneWeights(l.evalModel.Params())
			if first == nil {
				first = last
			}
		}
	}
	arena1 := tensor.ReadArenaStats()
	if mismatch > 0 {
		correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d traced rounds or evals differ from the Trainer's\n", mismatch)
	}
	refsOK := true
	if len(l.replicas) > 1 {
		first := l.replicas[0].avg.Reference()
		for _, r := range l.replicas[1:] {
			refsOK = refsOK && tensorsEqual(first, r.avg.Reference())
		}
	}
	if !refsOK {
		correct = false
		fmt.Fprintln(os.Stderr, "perfbench: traced replica reference copies differ")
	}
	var updBytes float64
	for _, reg := range l.avgRegs {
		updBytes += family(reg, "avgpipe_avg_update_bytes_total")
	}
	netBytes, netFrames := netCounters(l.regs)
	l.close()

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	put("data.next_batch_us", "us", l.medianUS("data.next_batch"))
	put("pipeline.run_batch_ms", "ms", l.medianUS("pipeline.run_batch")/1000)
	for s := 0; s < stages; s++ {
		var busy, bubble, peak float64
		if s < len(l.stage) && l.nMet > 0 {
			n := float64(l.nMet)
			busy, bubble, peak = l.stage[s][0]/n, l.stage[s][1]/n, l.stage[s][2]/n
		}
		put(fmt.Sprintf("pipeline.stage%d.busy_ms", s), "ms", busy)
		put(fmt.Sprintf("pipeline.stage%d.bubble_frac", s), "fraction", bubble)
		put(fmt.Sprintf("pipeline.stage%d.peak_inflight", s), "count", peak)
	}
	put("optim.step_us", "us", l.medianUS("optim.step"))
	put("elastic.dilute_us", "us", l.medianUS("elastic.dilute"))
	put("elastic.submit_us", "us", l.medianUS("elastic.submit"))
	put("elastic.wait_ms", "ms", l.medianUS("elastic.wait")/1000)
	put("elastic.update_bytes_per_round", "bytes", updBytes/float64(rounds))
	put("net.bytes_sent_per_round", "bytes", netBytes/float64(rounds))
	put("net.frames_sent_per_round", "count", netFrames/float64(rounds))
	put("net.codec_pack_us", "us", l.medianUS("net.codec_pack"))
	put("net.codec_unpack_us", "us", l.medianUS("net.codec_unpack"))
	put("net.codec_ratio", "ratio", median(ratios))
	put("net.form_ms", "ms", medianOr0(forms))
	put("eval.ms", "ms", l.medianUS("eval")/1000)
	borrows := arena1.Borrows - arena0.Borrows
	hitRate := 0.0
	if borrows > 0 {
		hitRate = float64(arena1.Hits-arena0.Hits) / float64(borrows)
	}
	put("tensor.arena_hit_rate", "fraction", hitRate)
	put("obs.trace_overhead_frac", "fraction", median(steps)/median(refSteps)-1)

	stageMetrics, err := measureStages(l.pipes[0], task, seed, tracer, o)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range stageMetrics {
		m[k] = v
	}
	layerMetrics, err := measureLayers(seed, tracer, o)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range layerMetrics {
		m[k] = v
	}

	srv, err := newServeRun(cfg, w.Serve, task, first, o.seed, o, tracer, heap)
	if err != nil {
		return nil, nil, fmt.Errorf("serve setup: %w", err)
	}
	srv.b.setNewest(last)
	nWin := windows
	if o.smoke {
		nWin = 1
	}
	for i := 0; i < nWin || !srv.ladder.done(); i++ {
		if err := srv.block(ctx, nWin, i < nWin); err != nil {
			srv.finish()
			return nil, nil, fmt.Errorf("serve: %w", err)
		}
	}
	sres := srv.finish()
	reportPhases(sres)
	sent, failed, smis := sres.counts()
	if failed > 0 || smis > 0 {
		correct = false
		fmt.Fprintf(os.Stderr, "perfbench: serve: %d failed (lost) and %d mismatched responses of %d\n", failed, smis, sent)
	}
	var installs []float64
	for _, d := range sres.installs {
		installs = append(installs, ms(d))
	}
	// Tail latencies are reported here, unbounded: on a shared host CPU
	// steal moves them by more than any bound an end-to-end metric may
	// carry. The round tail leaves out the warm-up rounds, as the
	// end-to-end run does.
	warm := 0
	if len(refSteps) > warmupRounds {
		warm = warmupRounds
	}
	put("pipeline.round_p99_ms", "ms", percentile(refSteps[warm:], 0.99))
	put("serve.p99_ms.low", "ms", calmPercentile(sres.lows, 0.99))
	put("serve.p99_ms.high", "ms", calmPercentile(sres.highs, 0.99))
	put("serve.install_ms", "ms", medianOr0(installs))
	put("serve.batch_occupancy_mean.low", "count", meanOccupancy(sres.lows))
	put("serve.batch_occupancy_mean.high", "count", meanOccupancy(sres.highs))
	put("serve.rejected", "count", sres.rejected+float64(failed))
	put("loadgen.late_p99_ms", "ms", sres.lateP99())
	fwd, err := measureServeForward(task, last, o)
	if err != nil {
		return nil, nil, err
	}
	put("serve.fwd_b1_us", "us", fwd[0])
	put("serve.fwd_b8_us", "us", fwd[1])
	return &result{Correct: correct, Attempted: int64(2*rounds) + int64(sent), Failed: int64(failed), Metrics: m}, tracer, nil
}

// meanOccupancy is the mean batch occupancy over the blocks' requests.
func meanOccupancy(blocks []*phaseStats) float64 {
	var sum, n float64
	for _, b := range blocks {
		sum += b.occupancy * float64(b.succeeded)
		n += float64(b.succeeded)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
