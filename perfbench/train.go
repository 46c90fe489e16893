package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"avgpipe/internal/core"
	netx "avgpipe/internal/net"
	"avgpipe/internal/nn"
	"avgpipe/internal/obs"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// clipNorm matches avgpipe-train's gradient clipping.
const clipNorm = 5

// jobSeed derives the seed of training job j from the workload seed.
func jobSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// trainer is one training job behind a uniform round interface: a
// single in-process Trainer, or one Trainer per TCP replica.
type trainer struct {
	task  *workload.Task
	ts    []*core.Trainer
	regs  []*obs.Registry // per-replica transport registries (TCP)
	setup time.Duration
}

// trainerConfig is the core configuration every job of a workload uses.
func trainerConfig(tc trainCfg, task *workload.Task, seed int64, reg *obs.Registry) (core.TrainerConfig, error) {
	adv, err := tc.advance()
	if err != nil {
		return core.TrainerConfig{}, err
	}
	codec, err := tc.codec()
	if err != nil {
		return core.TrainerConfig{}, err
	}
	return core.TrainerConfig{
		Task: task, Pipelines: pipelines, Micro: micro, StageCount: stages,
		Advance: adv, Compiled: true, Seed: seed, ClipNorm: clipNorm,
		Compress: codec, Obs: reg,
	}, nil
}

// newTrainer sets a job up and times it: for TCP, both replicas'
// listeners, the full-mesh formation and one Trainer per replica.
func newTrainer(ctx context.Context, tc trainCfg, task *workload.Task, seed int64) (*trainer, error) {
	start := time.Now()
	t := &trainer{task: task}
	switch tc.Transport {
	case "inproc":
		cfg, err := trainerConfig(tc, task, seed, obs.NewRegistry())
		if err != nil {
			return nil, err
		}
		tr, err := core.NewTrainer(cfg)
		if err != nil {
			return nil, err
		}
		t.ts = []*core.Trainer{tr}
	case "tcp":
		meshes, regs, err := formTCP(ctx, pipelines)
		if err != nil {
			return nil, err
		}
		t.regs = regs
		for i, m := range meshes {
			cfg, err := trainerConfig(tc, task, seed, obs.NewRegistry())
			if err != nil {
				return nil, err
			}
			cfg.Dist = &core.DistConfig{ReplicaID: i, Mesh: m}
			tr, err := core.NewTrainer(cfg)
			if err != nil {
				for _, m := range meshes[i:] {
					m.Close()
				}
				t.close()
				return nil, err
			}
			t.ts = append(t.ts, tr)
		}
	default:
		return nil, fmt.Errorf("unknown transport %q", tc.Transport)
	}
	t.setup = time.Since(start)
	return t, nil
}

// formTCP forms an n-replica full mesh over 127.0.0.1 inside this
// process: every replica gets its own transport, listener and mesh,
// exactly as n OS processes would.
func formTCP(ctx context.Context, n int) ([]*netx.Mesh, []*obs.Registry, error) {
	trs := make([]*netx.TCP, n)
	regs := make([]*obs.Registry, n)
	lns := make([]netx.Listener, n)
	addrs := make([]string, n)
	for i := range trs {
		regs[i] = obs.NewRegistry()
		trs[i] = netx.NewTCP(regs[i])
		ln, err := trs[i].Listen("127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr()
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	meshes := make([]*netx.Mesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range trs {
		peers := make(map[int]string)
		for j, a := range addrs {
			if j != i {
				peers[j] = a
			}
		}
		wg.Add(1)
		go func(i int, peers map[int]string) {
			defer wg.Done()
			meshes[i], errs[i] = netx.FormTopologyOn(ctx, trs[i], lns[i], netx.FullMesh{}, i, peers)
		}(i, peers)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, m := range meshes {
			if m != nil {
				m.Close()
			}
		}
		return nil, nil, fmt.Errorf("forming mesh: %w", err)
	}
	return meshes, regs, nil
}

// step runs one round on every replica and returns each replica's loss
// (in process: the trainer's mean loss) and the round's wall time.
func (t *trainer) step(ctx context.Context) ([]float64, time.Duration, error) {
	start := time.Now()
	losses := make([]float64, len(t.ts))
	if len(t.ts) == 1 {
		l, err := t.ts[0].StepContext(ctx)
		losses[0] = l
		return losses, time.Since(start), err
	}
	errs := make([]error, len(t.ts))
	var wg sync.WaitGroup
	for i, tr := range t.ts {
		wg.Add(1)
		go func(i int, tr *core.Trainer) {
			defer wg.Done()
			losses[i], errs[i] = tr.StepContext(ctx)
		}(i, tr)
	}
	wg.Wait()
	return losses, time.Since(start), errors.Join(errs...)
}

// samplesPerRound is the number of examples one round consumes.
func (t *trainer) samplesPerRound() int { return pipelines * t.task.BatchSize }

// eval checks replica 0's reference copy (every copy is identical).
func (t *trainer) eval() (loss, acc float64) { return t.ts[0].Eval() }

func (t *trainer) reference() []*nn.Param { return t.ts[0].ReferenceSnapshot() }

// refsEqual compares every replica's reference copy bitwise.
func (t *trainer) refsEqual(corrupt bool) bool {
	first := t.ts[0].Averager().Reference()
	for _, tr := range t.ts[1:] {
		other := tr.Averager().Reference()
		if corrupt {
			d := other[0].Data()
			d[0] = math.Nextafter32(d[0], float32(math.Inf(1)))
		}
		if !tensorsEqual(first, other) {
			return false
		}
	}
	return true
}

// netCounters sums bytes and frames sent over the given transports.
func netCounters(regs []*obs.Registry) (bytes, frames float64) {
	for _, reg := range regs {
		bytes += family(reg, "avgpipe_net_bytes_sent_total")
		frames += family(reg, "avgpipe_net_frames_sent_total")
	}
	return bytes, frames
}

// family sums every series of a registry metric family.
func family(reg *obs.Registry, name string) float64 {
	var v float64
	for k, x := range reg.Snapshot() {
		if k == name || strings.HasPrefix(k, name+"{") {
			v += x
		}
	}
	return v
}

func (t *trainer) close() {
	for _, tr := range t.ts {
		tr.Close()
	}
}

func cloneWeights(ps []*nn.Param) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.W.Clone()
	}
	return out
}

func tensorsEqual(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].Data(), b[i].Data()
		if len(x) != len(y) {
			return false
		}
		for j := range x {
			if math.Float32bits(x[j]) != math.Float32bits(y[j]) {
				return false
			}
		}
	}
	return true
}
