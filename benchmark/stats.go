package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric is one named number of a run: the median of its samples with
// the quartiles and the sample count, so a reader can tell a steady
// number from a lucky one. Counts and derived ratios carry n=1.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Contended counts samples left out because the hypervisor was
	// stealing CPU while they ran; see cleanest.
	Contended int `json:"contended,omitempty"`
	// Derived marks a value computed from other metrics rather than
	// measured directly.
	Derived bool `json:"derived,omitempty"`
}

// quantile returns the p-quantile of sorted by linear interpolation.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// summarize folds samples into a Metric.
func summarize(name, unit string, vals []float64) Metric {
	s := sortedCopy(vals)
	return Metric{Name: name, Unit: unit, N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Min: s[0], Max: s[len(s)-1]}
}

// sample is one timed observation and the share of the machine's CPU
// time the hypervisor stole while it ran.
type sample struct {
	value float64
	steal float64
}

// stealTolerance is the stolen share of CPU time below which a sample
// counts as uncontended: one 10 ms tick in a 0.25 s sample on two CPUs.
const stealTolerance = 0.02

// minClean is the fewest samples a metric is computed from.
const minClean = 3

// cleanest keeps the samples taken while the machine was the
// benchmark's own. On the shared VM the bounds were sized on, steal
// arrives in bursts of one to three seconds that take up to half the
// CPU, and in bad half-hours a third of all CPU time; a median over
// every sample then follows the neighbours, not the program (same seed,
// same binary: 1.26 s and 3.69 s). Samples within stealTolerance are
// kept; when fewer than minClean are, the minClean least-stolen ones
// are, so a run that was contended throughout still reports.
func cleanest(samples []sample) []float64 {
	limit := stealTolerance
	if len(samples) > 0 {
		shares := make([]float64, len(samples))
		for i, s := range samples {
			shares[i] = s.steal
		}
		sort.Float64s(shares)
		limit = max(limit, shares[min(minClean, len(shares))-1])
	}
	kept := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.steal <= limit {
			kept = append(kept, s.value)
		}
	}
	return kept
}

// summarizeClean folds the uncontended samples into a Metric.
func summarizeClean(name, unit string, samples []sample) Metric {
	if len(samples) == 0 {
		// Every rep of the leg failed; the run is already marked so.
		return Metric{Name: name, Unit: unit}
	}
	kept := cleanest(samples)
	m := summarize(name, unit, kept)
	m.Contended = len(samples) - len(kept)
	return m
}

// stealMeter reads the machine-wide stolen CPU time from /proc/stat.
// Where there is none to read, every sample counts as uncontended.
type stealMeter struct {
	at    time.Time
	ticks int64
}

// stolenTicks returns the steal column of /proc/stat's first line, in
// USER_HZ ticks of 10 ms.
func stolenTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return ticks
}

func startStealMeter() stealMeter { return stealMeter{time.Now(), stolenTicks()} }

// share returns the stolen share of all CPUs' time since the meter
// started.
func (m stealMeter) share() float64 {
	elapsed := time.Since(m.at).Seconds() * float64(runtime.NumCPU())
	return ratio(float64(stolenTicks()-m.ticks)/100, elapsed)
}

// single is a Metric with one observation: a count, or a one-shot timing.
func single(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, N: 1, Median: v, Q1: v, Q3: v, Min: v, Max: v}
}

// derived is a Metric computed from others.
func derived(name, unit string, v float64) Metric {
	m := single(name, unit, v)
	m.Derived = true
	return m
}

// ratio guards derived metrics against an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM)
// from /proc; 0 where /proc is absent.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
