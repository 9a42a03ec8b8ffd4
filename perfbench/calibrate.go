package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// calibrationRef sets the unit of the scaled timings: they read as the
// seconds the work would take where calibrate takes calibrationRef
// seconds, which is about the reference 2-vCPU VM in its slower spells.
const calibrationRef = 0.25

// deadlineElasticity is how far a deadline-bound search's timings follow
// the host's speed: they are scaled by scale^deadlineElasticity instead of
// by scale. Part of such a search waits on wall-clock deadlines, which
// take as long on a slow host as on a fast one, and the rest computes.
// Measured on nisq-guoq, same seeds at --seconds 30, between a fast spell
// (calibration about 0.175 s) and a slow one (0.24 to 0.44 s): the log of
// the wall_s ratio over the log of the calibration ratio was 0.31 to 0.46
// over ten seeds, and 0.31 to 0.57 for cpu_s.
const deadlineElasticity = 0.4

// calibrationReps is how often one calibration process runs calibrate;
// the calibration is their median.
const calibrationReps = 3

// runCalibration is the calibration process: it writes calibrationReps
// calibration times as a JSON array. It runs in a process of its own, so
// the collector's work in the loop depends on the loop alone, not on how
// much memory the program under test keeps live.
func runCalibration(out io.Writer) error {
	times := make([]float64, calibrationReps)
	for i := range times {
		times[i] = calibrate()
	}
	return json.NewEncoder(out).Encode(times)
}

// calibratePhase starts a calibration process and appends the median of
// its times to r.CalibS. A workload calls it right before its set-up,
// between its set-up and its work, and right after each round or part of
// the work, so each round or part is scaled by the two calibrations around
// it. Traced runs are not scaled and skip it.
func calibratePhase(p *plan, r *report) error {
	if p.Trace {
		return nil
	}
	out, err := runSelf(nil, "-calibrate")
	if err != nil {
		return err
	}
	var times []float64
	if err := json.Unmarshal(out, &times); err != nil {
		return fmt.Errorf("calibration report: %w", err)
	}
	r.CalibS = append(r.CalibS, median(times))
	return nil
}

// calibrate times a fixed piece of work that uses none of the program's
// code: small allocations with pointers and slices, map inserts, a float
// sort, number formatting and hashing, the kinds of work the optimizer and
// guoqd spend their time on. A cloud host can speed up and slow down by
// more than half within minutes without the steal counter showing it; a
// run's timings divided by its calibration do not move with it.
func calibrate() float64 {
	runtime.GC()
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	type node struct {
		qubits []int
		params []float64
		next   *node
	}
	var head *node
	for i := 0; i < 1<<18; i++ {
		head = &node{qubits: []int{i & 31, (i >> 5) & 31}, params: []float64{rng.Float64()}, next: head}
	}
	m := make(map[int]*node)
	for n, i := head, 0; n != nil; n, i = n.next, i+1 {
		if i%3 == 0 {
			m[rng.Int()] = n
		}
	}
	xs := make([]float64, 1<<19)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	sort.Float64s(xs)
	buf := make([]byte, 0, 1<<22)
	for _, x := range xs {
		buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
		buf = append(buf, ';')
	}
	sum := sha256.Sum256(buf)
	if len(m) == 0 || sum[0] == 0 && sum[1] == 0 && sum[2] == 0 {
		// Unreachable in practice; keeps the work observable.
		return 0
	}
	return time.Since(start).Seconds()
}
