package core

import (
	"fmt"
	"math"
	"testing"

	"avgpipe/internal/data"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/optim"
	"avgpipe/internal/sched"
	"avgpipe/internal/workload"
)

// sequentialReference is the test oracle for the pipeline runtime: the
// model's own nn Forward/Backward run one micro-batch at a time in
// ascending order, then the gradients are scaled to a batch mean exactly
// as RunBatch does. It returns the mean micro-batch loss.
func sequentialReference(model *nn.Sequential, batch *data.Batch, m int) float64 {
	var total float64
	for _, mb := range batch.Slice(m) {
		ctx := nn.NewContext()
		y := model.Forward(ctx, mb.X, true)
		loss, dlogits := nn.CrossEntropy(y, mb.Targets)
		model.Backward(ctx, dlogits)
		total += loss
	}
	optim.ScaleGrads(model.Params(), m)
	return total / float64(m)
}

// checkBitwise fails t unless the pipeline's loss and every parameter
// gradient carry exactly the reference's bit patterns.
func checkBitwise(t *testing.T, loss, refLoss float64, got, ref []*nn.Param) {
	t.Helper()
	if math.Float64bits(loss) != math.Float64bits(refLoss) {
		t.Fatalf("loss %.17g, sequential reference %.17g", loss, refLoss)
	}
	if len(got) != len(ref) {
		t.Fatalf("%d params, reference has %d", len(got), len(ref))
	}
	for i := range ref {
		g, r := got[i].G.Data(), ref[i].G.Data()
		for j := range r {
			if math.Float32bits(g[j]) != math.Float32bits(r[j]) {
				t.Fatalf("param %s grad[%d] = %v, reference %v", ref[i].Name, j, g[j], r[j])
			}
		}
	}
}

// TestPipelineMatchesSequentialReference is the permanent bit-exactness
// gate for the stage runtime: for every workload task, schedule family,
// and pipeline depth, one RunBatch through the compiled stages (2BP
// split included) must reproduce the sequential nn Forward/Backward
// reference bit for bit — the loss and every parameter gradient. Any
// divergence — a reordered accumulation, a fused kernel with different
// rounding, a stash corrupted across in-flight micro-batches — trips
// this before it can masquerade as a tuning artifact.
func TestPipelineMatchesSequentialReference(t *testing.T) {
	const m = 8
	for _, task := range workload.Tasks() {
		batch := task.NewGen(23).NextBatch(16)
		for _, k := range []int{2, 4} {
			taper := make([]int, k)
			for s := range taper {
				taper[s] = k - 1 - s
			}
			plans := []sched.Plan{sched.AFABPlan(), sched.GPipePlan(), sched.OneFOneBPlan(),
				sched.DapplePlan(), sched.AFPPlan(taper)}
			for _, plan := range plans {
				t.Run(fmt.Sprintf("%s/%s/K%d", task.Name, plan.Name, k), func(t *testing.T) {
					ref := task.NewModel(5)
					refLoss := sequentialReference(ref, batch, m)
					model := task.NewModel(5)
					pl, err := NewPipelineWith(model, PipelineConfig{Stages: k, Plan: plan, Obs: obs.NewRegistry()})
					if err != nil {
						t.Fatal(err)
					}
					checkBitwise(t, pl.RunBatch(batch, m), refLoss, model.Params(), ref.Params())
				})
			}
		}
	}
	// A fixed schedule runs verbatim, so its combined Bwd ops replay
	// grad-input and grad-weight inline; that path must match too.
	t.Run("fixed-unsplit", func(t *testing.T) {
		task := workload.TranslationTask()
		batch := task.NewGen(23).NextBatch(16)
		s := sched.OneFOneB(2, m, 1)
		for _, ops := range s.PerGPU {
			for _, op := range ops {
				if op.Kind == sched.BwdIn || op.Kind == sched.BwdW {
					t.Fatalf("fixture schedule %s is already split", s.Name)
				}
			}
		}
		ref := task.NewModel(5)
		refLoss := sequentialReference(ref, batch, m)
		model := task.NewModel(5)
		pl, err := NewPipelineFromSchedule(model, s)
		if err != nil {
			t.Fatal(err)
		}
		checkBitwise(t, pl.RunBatch(batch, m), refLoss, model.Params(), ref.Params())
	})
}

// TestCompiledPipelineOccupancy cross-validates the runtime against the
// schedule analysis: with the backward split, the measured
// per-stage op counts and stash high-water marks must equal the split
// schedule's analytic values exactly.
func TestCompiledPipelineOccupancy(t *testing.T) {
	task := workload.ClassificationTask()
	model := task.NewModel(7)
	pl, err := NewPipelineWith(model, PipelineConfig{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	const m = 4
	batch := task.NewGen(11).NextBatch(8)
	pl.RunBatch(batch, m)

	s, an := pl.ScheduleFor(m)
	for _, ops := range s.PerGPU {
		var bi, bw int
		for _, op := range ops {
			switch op.Kind {
			case sched.BwdIn:
				bi++
			case sched.BwdW:
				bw++
			case sched.Bwd:
				t.Fatalf("plan-built pipeline schedule still has combined op %v", op)
			}
		}
		if bi != m || bw != m {
			t.Fatalf("split schedule has %d BwdIn / %d BwdW ops per stage, want %d each", bi, bw, m)
		}
	}
	for st, met := range pl.Metrics() {
		if met.Fwd != an.Fwd[st] || met.Bwd != an.Bwd[st] || met.BwdW != an.BwdW[st] {
			t.Errorf("stage %d ran F=%d Bi=%d Bw=%d, analysis says F=%d Bi=%d Bw=%d",
				st, met.Fwd, met.Bwd, met.BwdW, an.Fwd[st], an.Bwd[st], an.BwdW[st])
		}
		if met.PeakInFlight != an.MaxInFlight[st] {
			t.Errorf("stage %d peak in-flight %d, analysis %d", st, met.PeakInFlight, an.MaxInFlight[st])
		}
	}

	// The plans behind each stage must satisfy the planner invariants
	// for the shapes this batch actually bound.
	for st, prog := range pl.StagePrograms() {
		if err := prog.CheckPlan(batch.Slice(m)[0].X.Shape()); err != nil && st == 0 {
			t.Errorf("stage %d plan: %v", st, err)
		}
	}
}
