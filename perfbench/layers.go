package main

import (
	"fmt"
	"time"

	"avgpipe/internal/compiled"
	"avgpipe/internal/core"
	"avgpipe/internal/data"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// layerReps is how many times each compiled phase is replayed; the
// reported figure is the median.
const layerReps = 25

// phaseTimes holds one program's replay samples per phase.
type phaseTimes struct{ fwd, bwdIn, bwdW []float64 }

func (pt *phaseTimes) report(m map[string]metric, prefix string) {
	m[prefix+".fwd_us"] = metric{medianOr0(pt.fwd), "us"}
	m[prefix+".bwd_in_us"] = metric{medianOr0(pt.bwdIn), "us"}
	m[prefix+".bwd_w_us"] = metric{medianOr0(pt.bwdW), "us"}
}

// timed runs fn and returns its duration in microseconds, recording a
// span on the layer track.
func timed(tr *obs.Tracer, epoch time.Time, tid int, name string, fn func()) float64 {
	start := time.Now()
	fn()
	d := time.Since(start)
	tr.Span(traceLayerPID, tid, name, "layer", us(start.Sub(epoch)), us(d), nil)
	return us(d)
}

// gradLike returns a deterministic output gradient shaped like y.
func gradLike(y *tensor.Tensor) *tensor.Tensor {
	g := tensor.New(y.Shape()...)
	d := g.Data()
	for i := range d {
		d[i] = float32(i%7-3) * 1e-3
	}
	return g
}

// microBatch draws one micro-batch of the task from the seed.
func microBatch(task *workload.Task, seed int64) *data.Batch {
	return task.NewGen(seed).NextBatch(task.BatchSize).Slice(micro)[0]
}

// measureStages replays each of the pipeline's compiled stage programs
// in a fresh Env at micro-batch shape, in the order the runtime does:
// forward down the stages, then grad-input and grad-weight back up.
func measureStages(pl *core.Pipeline, task *workload.Task, seed int64, tr *obs.Tracer, o options) (map[string]metric, error) {
	progs := pl.StagePrograms()
	if len(progs) == 0 {
		return nil, fmt.Errorf("pipeline has no compiled stage programs")
	}
	mb := microBatch(task, seed)
	reps := layerReps
	if o.smoke {
		reps = 2
	}
	epoch := time.Now()
	times := make([]phaseTimes, len(progs))
	for rep := 0; rep < reps; rep++ {
		envs := make([]*compiled.Env, len(progs))
		x := mb.X
		for s, prog := range progs {
			env := prog.NewEnv(x.Shape())
			envs[s] = env
			env.BindInput(x)
			times[s].fwd = append(times[s].fwd, timed(tr, epoch, s, fmt.Sprintf("stage%d.fwd", s), env.Forward))
			if s < len(progs)-1 {
				x = env.Output()
			}
		}
		last := len(progs) - 1
		_, dy := nn.CrossEntropy(envs[last].Output(), mb.Targets)
		envs[last].ReleaseOutput()
		for s := last; s >= 0; s-- {
			env := envs[s]
			env.BindGradIn(dy)
			times[s].bwdIn = append(times[s].bwdIn, timed(tr, epoch, s, fmt.Sprintf("stage%d.bwd_in", s), env.BackwardInput))
			dy = env.GradOut()
			times[s].bwdW = append(times[s].bwdW, timed(tr, epoch, s, fmt.Sprintf("stage%d.bwd_w", s), env.BackwardWeights))
			env.EndMicro()
		}
	}
	nn.ZeroGrads(pl.Params())
	m := map[string]metric{}
	for s := 0; s < stages; s++ {
		pt := phaseTimes{}
		if s < len(times) {
			pt = times[s]
		}
		pt.report(m, fmt.Sprintf("compiled.stage%d", s))
	}
	return m, nil
}

// layerModels names every layer of both benchmark models; the names
// are the per-layer metric prefixes.
var layerModels = []struct {
	prefix string
	task   func() *workload.Task
	names  []string
}{
	{"layer.tf", workload.ClassificationTask, []string{"embed", "enc0", "enc1", "pool", "head"}},
	{"layer.lstm", workload.TranslationTask, []string{"embed", "lstm0", "lstm1", "head"}},
}

// measureLayers compiles every layer of both models alone with
// nn.CompileStage and replays it at micro-batch shape, feeding each
// layer the previous layer's real output.
func measureLayers(seed int64, tr *obs.Tracer, o options) (map[string]metric, error) {
	reps := layerReps
	if o.smoke {
		reps = 2
	}
	m := map[string]metric{}
	epoch := time.Now()
	for _, lm := range layerModels {
		task := lm.task()
		model := task.NewModel(seed)
		if len(model.Layers) != len(lm.names) {
			return nil, fmt.Errorf("%s: model has %d layers, expected %d", lm.prefix, len(model.Layers), len(lm.names))
		}
		mb := microBatch(task, seed)
		x := mb.X
		for i, layer := range model.Layers {
			last := i == len(model.Layers)-1
			prog, err := nn.CompileStage(nn.NewSequential(layer), compiled.Options{EmitOut: !last, EmitDX: i > 0})
			if err != nil {
				return nil, fmt.Errorf("%s.%s: %w", lm.prefix, lm.names[i], err)
			}
			name := lm.prefix + "." + lm.names[i]
			pt := phaseTimes{}
			var next *tensor.Tensor
			for rep := 0; rep < reps; rep++ {
				env := prog.NewEnv(x.Shape())
				env.BindInput(x)
				pt.fwd = append(pt.fwd, timed(tr, epoch, 0, name+".fwd", env.Forward))
				y := env.Output()
				if rep == 0 {
					next = y.Clone()
				}
				var dy *tensor.Tensor
				if last {
					_, dy = nn.CrossEntropy(y, mb.Targets)
					env.ReleaseOutput()
				} else {
					dy = gradLike(y)
				}
				env.BindGradIn(dy)
				pt.bwdIn = append(pt.bwdIn, timed(tr, epoch, 0, name+".bwd_in", env.BackwardInput))
				pt.bwdW = append(pt.bwdW, timed(tr, epoch, 0, name+".bwd_w", env.BackwardWeights))
				env.EndMicro()
			}
			pt.report(m, name)
			x = next
		}
	}
	return m, nil
}

// measureServeForward times the served model's eval-mode compiled
// forward at batch 1 and batch 8, as a serve worker replays it.
func measureServeForward(task *workload.Task, weights []*tensor.Tensor, o options) ([2]float64, error) {
	var out [2]float64
	model := task.NewModel(1)
	for i, p := range model.Params() {
		p.W.CopyFrom(weights[i])
	}
	prog, err := nn.CompileStageInference(model, compiled.Options{})
	if err != nil {
		return out, err
	}
	mb := task.NewGen(1).EvalBatch()
	seqLen := mb.X.Dim(0) / mb.Size
	reps := 200
	if o.smoke {
		reps = 2
	}
	for k, n := range []int{1, 8} {
		shape := []int{seqLen * n, 1}
		env := prog.NewEnv(shape)
		x := tensor.New(shape...)
		xd := x.Data()
		for i := range xd {
			xd[i] = float32(i % 5)
		}
		var ts []float64
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			env.BindInput(x)
			env.Forward()
			env.ReleaseOutput()
			env.EndMicro()
			ts = append(ts, us(time.Since(start)))
		}
		out[k] = median(ts)
	}
	return out, nil
}
