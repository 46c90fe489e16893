package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"avgpipe/internal/tensor"
)

// setupReps is how many extra times a run sets up training, on top of
// its jobs, so setup_s is a median of several.
const setupReps = 15

// windows is how many windows a run is cut into. Each window trains
// every job a slice of rounds and then serves one block. Speed and
// latency statistics are taken over the calmer windows (see calmest),
// so a burst of outside load on a shared host moves few of the samples
// instead of the whole result.
const windows = 8

// job is one training job stepped a slice at a time.
type job struct {
	t     *trainer
	steps []time.Duration // per-round wall time; in a TCP job the round both replicas finish
	// hit is the round of the first check that met the task target (-1
	// until then); evalLoss the eval loss at the fixed round count.
	hit      int
	evalLoss float64
	done     bool
	finite   bool
	// snap is a copy of the reference weights at the latest check, taken
	// at round snapAt (job 0 only).
	snap   []*tensor.Tensor
	snapAt int
}

// advance trains one round and runs the eval check when one is due. A
// job is done at the first check at or after fixed rounds where the
// target has been met, or at max rounds.
func (jb *job) advance(ctx context.Context, fixed, maxR, check int, keep bool) (time.Duration, error) {
	losses, d, err := jb.t.step(ctx)
	if err != nil {
		return 0, err
	}
	jb.steps = append(jb.steps, d)
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			jb.finite = false
		}
	}
	r := len(jb.steps)
	if r%check == 0 {
		loss, acc := jb.t.eval()
		if keep {
			jb.snap, jb.snapAt = cloneWeights(jb.t.reference()), r
		}
		if jb.hit < 0 && jb.t.task.Reached(loss, acc) {
			jb.hit = r
		}
		if r == fixed {
			jb.evalLoss = loss
		}
		jb.done = r >= fixed && jb.hit >= 0
	}
	if r >= maxR {
		jb.done = true
		if jb.hit < 0 {
			// Never reached: report the whole run, which a regression
			// that stops convergence makes longer.
			jb.hit = r
		}
	}
	return d, nil
}

// runEndToEnd is the untraced run: training jobs interleaved window by
// window with serving blocks on the trained model under hot swap,
// reporting every end-to-end metric.
func runEndToEnd(cfg *config, w *workloadCfg, o options, heap *heapSampler) (*result, error) {
	ctx := context.Background()
	tc := w.Train
	task, err := tc.task()
	if err != nil {
		return nil, err
	}
	nJobs, warm, reps, nWin := tc.Jobs, warmupRounds, setupReps, windows
	fixed, maxR, check := tc.FixedRounds, maxRounds, checkEvery
	if o.smoke {
		nJobs, warm, reps, nWin = 1, 0, 1, 1
		fixed, maxR, check = 4, 4, 2
	}
	var trainSetups []float64
	for i := 0; i < reps; i++ {
		t, err := newTrainer(ctx, tc, task, jobSeed(o.seed, i))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		trainSetups = append(trainSetups, t.setup.Seconds())
		t.close()
	}
	jobs := make([]*job, nJobs)
	for j := range jobs {
		t, err := newTrainer(ctx, tc, task, jobSeed(o.seed, j))
		if err != nil {
			return nil, fmt.Errorf("job %d setup: %w", j, err)
		}
		defer t.close()
		trainSetups = append(trainSetups, t.setup.Seconds())
		jobs[j] = &job{t: t, hit: -1, finite: true, steps: make([]time.Duration, 0, maxR)}
	}
	srv, err := newServeRun(cfg, w.Serve, task, cloneWeights(jobs[0].t.reference()), o.seed, o, nil, heap)
	if err != nil {
		return nil, fmt.Errorf("serve setup: %w", err)
	}
	served := 0 // round of the job 0 snapshot newest in the install rotation
	perWindow := (fixed + nWin - 1) / nWin
	var (
		winSteps          [][]float64
		winRate, winSteal []float64
		rounds            int64
	)
	for win := 0; ; win++ {
		var (
			steps        []float64
			sec, samples float64
		)
		steal := readSteal()
		for j, jb := range jobs {
			for k := 0; k < perWindow && !jb.done; k++ {
				d, err := jb.advance(ctx, fixed, maxR, check, j == 0)
				if err != nil {
					srv.finish()
					return nil, fmt.Errorf("job %d round %d: %w", j, len(jb.steps)+1, err)
				}
				rounds++
				if len(jb.steps) > warm {
					steps = append(steps, ms(d))
					sec += d.Seconds()
					samples += float64(jb.t.samplesPerRound())
				}
			}
		}
		if len(steps) > 0 {
			winSteps = append(winSteps, steps)
			winRate = append(winRate, samples/sec)
			winSteal = append(winSteal, steal.since())
		}
		// The newest reference snapshot joins the install rotation.
		if jb := jobs[0]; jb.snapAt > served {
			srv.b.setNewest(jb.snap)
			served = jb.snapAt
		}
		fixedPhases := win < nWin
		if fixedPhases || !srv.ladder.done() {
			if err := srv.block(ctx, nWin, fixedPhases); err != nil {
				srv.finish()
				return nil, fmt.Errorf("serve: %w", err)
			}
		}
		training := false
		for _, jb := range jobs {
			training = training || !jb.done
		}
		if !training && win+1 >= nWin && srv.ladder.done() {
			break
		}
	}
	sres := srv.finish()

	correct := true
	var hits, evl []float64
	for j, jb := range jobs {
		hits = append(hits, float64(jb.hit))
		evl = append(evl, jb.evalLoss)
		if !jb.finite {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: job %d: non-finite training loss\n", j)
		}
		if !jb.t.refsEqual(o.corrupt == "reference") {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: job %d: replica reference copies differ\n", j)
		}
		fmt.Fprintf(os.Stderr, "perfbench: job %d: %d rounds, target at round %d, eval loss %.4f at round %d\n",
			j, len(jb.steps), jb.hit, jb.evalLoss, fixed)
	}
	sent, failed, mismatch := sres.counts()
	if failed > 0 || mismatch > 0 {
		correct = false
		fmt.Fprintf(os.Stderr, "perfbench: serve: %d failed (lost) and %d mismatched responses of %d\n", failed, mismatch, sent)
	}
	reportPhases(sres)
	var serveSetups []float64
	for _, d := range sres.setups {
		serveSetups = append(serveSetups, d.Seconds())
	}
	var calmSteps, calmRates []float64
	for _, i := range calmest(winSteal) {
		calmSteps = append(calmSteps, winSteps[i]...)
		calmRates = append(calmRates, winRate[i])
	}
	stepP50 := percentile(calmSteps, 0.5)
	// Rounds to target, quality and time to target are means over the
	// jobs: they vary with the seed, and the mean of a few jobs varies
	// least. Time to target is the summed step time up to the target
	// check, taken as rounds times the median round time (throughput
	// times statistical efficiency), so rounds stalled by outside load
	// do not dominate it.
	m := map[string]metric{
		"setup_s":           {median(trainSetups) + median(serveSetups), "s"},
		"peak_heap_mb":      {heap.peakMB(), "MiB"},
		"samples_per_s":     {median(calmRates), "1/s"},
		"step_p50_ms":       {stepP50, "ms"},
		"time_to_target_s":  {mean(hits) * stepP50 / 1000, "s"},
		"rounds_to_target":  {mean(hits), "count"},
		"eval_loss":         {mean(evl), "nats"},
		"serve_p50_ms.low":  {calmPercentile(sres.lows, 0.5), "ms"},
		"serve_p50_ms.high": {lowestP50(sres.highs), "ms"},
		"serve_goodput_rps": {sres.goodput, "1/s"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d windows (steal %.3f), %d training rounds, %d requests\n", len(winSteps), winSteal, rounds, sent)
	return &result{Correct: correct, Attempted: rounds + int64(sent), Failed: int64(failed), Metrics: m}, nil
}

// reportPhases logs sent, succeeded and failed requests per phase, with
// the generator's lateness, to standard error.
func reportPhases(r *serveResult) {
	for _, p := range r.phases {
		fmt.Fprintf(os.Stderr, "perfbench: serve %-14s %6.0f/s sent %6d ok %6d failed %d p50 %.3fms p99 %.3fms occupancy %.2f backlog %d aborted %v late p99 %.3fms steal %.3f\n",
			p.name, p.rate, p.sent, p.succeeded, p.failed, p.p50, p.p99,
			p.occupancy, p.backlog, p.aborted, p.lateP99, p.steal)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve goodput %.0f/s, %d first ladder failures overturned, %d installs\n",
		r.goodput, r.overturned, len(r.installs))
}
