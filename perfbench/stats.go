package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// minBeyond is the number of samples a tail percentile must have above it
// to be reported.
const minBeyond = 10

// selectTail returns the highest of p99.9, p99 and p90 that has at least
// minBeyond of n samples beyond it, and false when even p90 has fewer.
func selectTail(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// beyond is the number of n samples strictly above the p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100))
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples, which it sorts in place. It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(float64(len(samples)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
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
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is the process's resource use at one instant.
type usage struct {
	cpu    time.Duration // user + system CPU
	maxRSS int64         // peak resident set, bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, maxRSS: ru.Maxrss * 1024} // Linux reports KiB
}
