package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// median returns the middle of vals (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is the number of samples that must lie beyond the reported
// tail percentile, so the tail is never a single outlier.
const tailMinBeyond = 10

// tail is a tail latency: the value at a percentile, with the number of
// samples beyond it and the total sample count.
type tail struct {
	Pct    int
	Value  float64
	Beyond int
	N      int
}

func (t tail) String() string {
	return fmt.Sprintf("p%d, %d samples beyond, n=%d", t.Pct, t.Beyond, t.N)
}

// tailPercentile returns the highest whole percentile whose nearest-rank
// value has at least tailMinBeyond samples beyond it. With too few samples
// for any percentile to qualify it returns the maximum as p100 with zero
// samples beyond, so the caller can see the tail is not resolved.
func tailPercentile(vals []float64) tail {
	n := len(vals)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	for p := 99; p >= 1; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= tailMinBeyond {
			return tail{Pct: p, Value: s[rank-1], Beyond: n - rank, N: n}
		}
	}
	return tail{Pct: 100, Value: s[n-1], Beyond: 0, N: n}
}

// failures counts failed operations by the first line of their error, the
// attribution printed next to fail_ratio.
type failures map[string]int

func (f failures) add(err error) {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	f[msg]++
}

// lines returns "count  message" lines, most frequent first.
func (f failures) lines() []string {
	type kv struct {
		msg string
		n   int
	}
	var all []kv
	for m, n := range f {
		all = append(all, kv{m, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].msg < all[j].msg
	})
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = fmt.Sprintf("%6d  %s", e.n, e.msg)
	}
	return out
}

// outcome is one attempted operation as the benchmark saw it.
type outcome struct {
	Input   int     // index into the session's input pool
	Seconds float64 // wall time of the operation
	CPU     float64 // CPU time of the process, all threads, during the operation
	Tris    int     // triangles of the output mesh (0 when none)
	Hash    string  // digest of the output mesh ("" when none)
	InBand  float64 // adapt-bl: fraction of edges in the metric band
	Err     error   // non-nil when the operation or an output check failed
}

// summary is the end-to-end view of a set of operations.
type summary struct {
	Attempted, Failed int
	P50               float64 // wall
	Tail              tail    // wall
	TriPerS           float64 // per wall second of the measured phase
	CPUP50            float64
	CPUTail           tail
	TriPerCPUS        float64 // per CPU second of the measured phase
	FailRatio         float64
	InBand            float64 // median over passing ops; 0 without any
	Errors            failures
}

// summarize folds outcomes measured over wall seconds, in which the
// process used cpu seconds. Every attempted op counts toward the timing
// percentiles; only ops that passed every check add triangles to the
// throughputs.
func summarize(ops []outcome, wall, cpu float64) summary {
	s := summary{Attempted: len(ops), Errors: failures{}}
	secs := make([]float64, len(ops))
	cpus := make([]float64, len(ops))
	var inBand []float64
	good := 0
	for i, o := range ops {
		secs[i], cpus[i] = o.Seconds, o.CPU
		if o.Err != nil {
			s.Failed++
			s.Errors.add(o.Err)
			continue
		}
		good += o.Tris
		if o.InBand > 0 {
			inBand = append(inBand, o.InBand)
		}
	}
	s.P50 = median(secs)
	s.Tail = tailPercentile(secs)
	s.CPUP50 = median(cpus)
	s.CPUTail = tailPercentile(cpus)
	if wall > 0 {
		s.TriPerS = float64(good) / wall
	}
	if cpu > 0 {
		s.TriPerCPUS = float64(good) / cpu
	}
	if s.Attempted > 0 {
		s.FailRatio = float64(s.Failed) / float64(s.Attempted)
	}
	s.InBand = median(inBand)
	return s
}
