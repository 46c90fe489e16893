package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs:
// the smallest value with at least q·n values at or below it. NaN for
// an empty sample. Failed operations enter as +Inf, so they count as
// missing any latency limit.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ladder is a binary search over a fixed ladder of rungs for the
// highest one that passes, assuming rungs pass up to some point and fail
// above it; it needs O(log n) measured probes. Rungs ≤ lo passed, rungs
// ≥ hi failed. A rung fails only when two probes of it in a row fail,
// the second made later in the run: a stall from outside load on a
// shared host can fail one probe of a rung the server sustains, and the
// search would halve on it, while a rung above capacity fails both.
type ladder struct {
	lo, hi int
	// suspect is the rung whose one failed probe awaits a second (-1 when
	// none); overturned counts suspects whose second probe passed.
	suspect, overturned int
}

func newLadder(rungs int) ladder { return ladder{lo: -1, hi: rungs, suspect: -1} }

func (l ladder) done() bool { return l.hi-l.lo <= 1 }

// next is the rung to probe.
func (l ladder) next() int { return (l.lo + l.hi) / 2 }

func (l *ladder) record(rung int, pass bool) {
	if !pass && l.suspect != rung {
		l.suspect = rung
		return
	}
	if pass && l.suspect == rung {
		l.overturned++
	}
	l.suspect = -1
	if pass {
		l.lo = rung
	} else {
		l.hi = rung
	}
}

// top is the highest passing rung, or -1 when even rung 0 failed.
func (l ladder) top() int { return l.lo }

// arrivals returns n open-loop send offsets for a Poisson process of
// the given rate, drawn from u (uniform in [0,1)): the schedule is a
// pure function of the seed, independent of how the system responds.
func arrivals(n int, rate float64, u func() float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += -math.Log(1-u()) / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// lateness is how far behind its schedule the generator sent each
// request: the send time minus the due time, never negative.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stealMeter measures the share of CPU time the host took from this
// machine (steal, from /proc/stat) over an interval: on a shared host a
// burst of outside load shows up here, so the benchmark can rank its
// windows by how disturbed they were. Where /proc/stat is unreadable the
// share reads as zero and no window is preferred.
type stealMeter struct{ steal, total uint64 }

func readSteal() stealMeter {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealMeter{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealMeter{}
	}
	var m stealMeter
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return stealMeter{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			m.total += n
		}
		if i == 7 {
			m.steal = n
		}
	}
	return m
}

// since returns the steal share between m and now.
func (m stealMeter) since() float64 {
	now := readSteal()
	if now.total <= m.total {
		return 0
	}
	return float64(now.steal-m.steal) / float64(now.total-m.total)
}

// calmest returns the indices, in order, of the windows during which
// the host stole no more CPU than the median window did: about the
// calmer half when steal varies, and every window when it does not, so
// ties never favour early or late windows. Statistics pooled over them
// are less moved by a burst of outside load than ones over all windows.
func calmest(steal []float64) []int {
	limit := median(steal)
	var idx []int
	for i, s := range steal {
		if s <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// heapSampler tracks the peak live heap: the largest heap the garbage
// collector found reachable at the end of any cycle during the run.
// Sampling the post-GC live size, rather than the heap in use at an
// instant, keeps the figure independent of when collections happen.
type heapSampler struct {
	peak   atomic.Uint64
	paused atomic.Bool
	quit   chan struct{}
	wg     sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	if h.paused.Load() {
		return
	}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// pause stops (true) or resumes (false) recording, for phases whose
// memory is not part of the measurement.
// On resuming it collects once, so the live heap it reads next is the
// heap of the resumed phase.
func (h *heapSampler) pause(p bool) {
	if !p {
		runtime.GC()
	}
	h.paused.Store(p)
}

// peakMB reports the peak so far in MiB.
func (h *heapSampler) peakMB() float64 {
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

func (h *heapSampler) stop() {
	close(h.quit)
	h.wg.Wait()
}
