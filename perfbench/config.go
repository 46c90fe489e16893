package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"avgpipe/internal/data"
	netx "avgpipe/internal/net"
	"avgpipe/internal/workload"
)

// config is workloads.json: the fixed inputs of every workload. The
// file also holds, under "interactions", the map from each per-layer
// metric to the end-to-end metrics and workloads it is expected to
// move; that map is for readers and later changes to cite, not code.
type config struct {
	// ServeP99LimitMS is the p99 latency limit a goodput-ladder rung
	// must meet.
	ServeP99LimitMS float64 `json:"serve_p99_limit_ms"`
	// LowRPS and HighRPS are the fixed offered rates: at the low one most
	// batches flush on linger, at the high one most fill. LadderRPS is
	// the goodput ladder.
	LowRPS    float64                 `json:"low_rps"`
	HighRPS   float64                 `json:"high_rps"`
	LadderRPS []float64               `json:"ladder_rps"`
	Workloads map[string]*workloadCfg `json:"workloads"`
}

// The job geometry every workload shares: N pipelines, K stages, M
// micro-batches; the target is checked every checkEvery rounds, a job
// stops at maxRounds, and the first warmupRounds rounds of a job are
// left out of the speed statistics.
const (
	pipelines    = 2
	stages       = 2
	micro        = 4
	checkEvery   = 20
	maxRounds    = 400
	warmupRounds = 20
)

// workloadCfg is one workload; its "why" in workloads.json is for
// readers, like the interaction map.
type workloadCfg struct {
	Train trainCfg `json:"train"`
	Serve serveCfg `json:"serve"`
}

// trainCfg is the training half of a workload: the job geometry and
// how time to target is checked.
type trainCfg struct {
	Task      string `json:"task"`
	Schedule  string `json:"schedule"` // afp (with Advance) or 1f1b
	Advance   []int  `json:"advance"`
	Transport string `json:"transport"` // inproc or tcp
	Codec     string `json:"codec"`     // update codec; top-k keeps its default fraction
	// EvalSize is the held-out batch the reference model is checked on.
	EvalSize int `json:"eval_size"`
	// FixedRounds is the round count eval_loss is reported at; a job
	// stops at the first check at or after it where the target has been
	// met, or at maxRounds.
	FixedRounds int `json:"fixed_rounds"`
	// Jobs independent training jobs run per measurement (sub-seeds of
	// the workload seed); quality metrics are their means.
	Jobs int `json:"jobs"`
}

// serveCfg is the serving half: phase lengths as shares of the run's
// seconds and the snapshot swap cadence.
type serveCfg struct {
	LowShare  float64 `json:"low_s"`
	HighShare float64 `json:"high_s"`
	RungShare float64 `json:"rung_s"`
	SwapMS    int     `json:"swap_ms"`
}

func loadConfig(b []byte) (*config, error) {
	var c config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if c.ServeP99LimitMS <= 0 || c.LowRPS <= 0 || c.HighRPS <= 0 {
		return nil, fmt.Errorf("workloads.json: the p99 limit and the rates must be positive")
	}
	if len(c.LadderRPS) < 2 || !sort.Float64sAreSorted(c.LadderRPS) {
		return nil, fmt.Errorf("workloads.json: ladder_rps must be an ascending list of at least two rungs")
	}
	for name, w := range c.Workloads {
		if t := w.Train; t.FixedRounds <= 0 || t.FixedRounds > maxRounds || t.FixedRounds%checkEvery != 0 || t.Jobs <= 0 {
			return nil, fmt.Errorf("workloads.json: %s: fixed_rounds must be a multiple of %d up to %d, and jobs positive", name, checkEvery, maxRounds)
		}
	}
	return &c, nil
}

func (c *config) names() []string {
	var out []string
	for n := range c.Workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// task builds the workload's task. The model, data stream and target
// are the library's; only the held-out batch size is the benchmark's,
// so the target check is not dominated by eval-sampling noise.
func (t trainCfg) task() (*workload.Task, error) {
	switch t.Task {
	case "classification":
		task := workload.ClassificationTask()
		stock := task.NewGen(0).(*data.PairClassificationTask)
		vocab, half, n := stock.Vocab, stock.HalfLen, t.EvalSize
		task.NewGen = func(seed int64) data.Generator {
			return data.NewPairClassificationTask(seed, vocab, half, n)
		}
		return task, nil
	case "translation":
		task := workload.TranslationTask()
		stock := task.NewGen(0).(*data.TranslationTask)
		vocab, seqLen, n := stock.Vocab, stock.SeqLen, t.EvalSize
		task.NewGen = func(seed int64) data.Generator {
			return data.NewTranslationTask(seed, vocab, seqLen, n)
		}
		return task, nil
	}
	return nil, fmt.Errorf("unknown task %q", t.Task)
}

func (t trainCfg) codec() (netx.Codec, error) {
	if t.Codec == "" {
		return netx.CodecNone, nil
	}
	return netx.CodecByName(t.Codec)
}

// advance is the AFP run-ahead vector (nil = 1F1B).
func (t trainCfg) advance() ([]int, error) {
	switch t.Schedule {
	case "1f1b":
		return nil, nil
	case "afp":
		if len(t.Advance) != stages {
			return nil, fmt.Errorf("afp advance %v for %d stages", t.Advance, stages)
		}
		return t.Advance, nil
	}
	return nil, fmt.Errorf("unknown schedule %q", t.Schedule)
}
